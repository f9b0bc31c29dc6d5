#include "common/status.h"

#include <gtest/gtest.h>

namespace adahealth {
namespace common {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  Status status = InvalidArgumentError("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(DataLossError("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(DeadlineExceededError("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
}

TEST(StatusTest, ResourceExhaustedName) {
  EXPECT_EQ(ResourceExhaustedError("queue full").ToString(),
            "RESOURCE_EXHAUSTED: queue full");
}

TEST(StatusTest, StatusCodeFromNameRoundTripsEveryCode) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition,
        StatusCode::kOutOfRange, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kDataLoss,
        StatusCode::kUnavailable, StatusCode::kDeadlineExceeded,
        StatusCode::kResourceExhausted}) {
    auto parsed = StatusCodeFromName(StatusCodeName(code));
    ASSERT_TRUE(parsed.ok()) << StatusCodeName(code);
    EXPECT_EQ(parsed.value(), code);
  }
}

TEST(StatusTest, StatusCodeFromNameRejectsUnknownNames) {
  EXPECT_EQ(StatusCodeFromName("NO_SUCH_CODE").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusCodeFromName("").status().code(),
            StatusCode::kInvalidArgument);
  // Matching is exact: canonical names are upper snake case.
  EXPECT_FALSE(StatusCodeFromName("not_found").ok());
}

TEST(StatusTest, TransientCodeNames) {
  EXPECT_EQ(UnavailableError("disk busy").ToString(),
            "UNAVAILABLE: disk busy");
  EXPECT_EQ(DeadlineExceededError("too slow").ToString(),
            "DEADLINE_EXCEEDED: too slow");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(OkStatus(), Status());
  EXPECT_EQ(NotFoundError("a"), NotFoundError("a"));
  EXPECT_FALSE(NotFoundError("a") == NotFoundError("b"));
  EXPECT_FALSE(NotFoundError("a") == InternalError("a"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(NotFoundError("missing"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> result(std::string("payload"));
  std::string value = std::move(result).value();
  EXPECT_EQ(value, "payload");
}

TEST(StatusOrTest, ArrowOperator) {
  StatusOr<std::string> result(std::string("abc"));
  EXPECT_EQ(result->size(), 3u);
}

Status FailIfNegative(int x) {
  if (x < 0) return InvalidArgumentError("negative");
  return OkStatus();
}

StatusOr<int> DoubleIfPositive(int x) {
  ADA_RETURN_IF_ERROR(FailIfNegative(x));
  return 2 * x;
}

StatusOr<int> QuadrupleViaAssign(int x) {
  ADA_ASSIGN_OR_RETURN(int doubled, DoubleIfPositive(x));
  ADA_ASSIGN_OR_RETURN(int quadrupled, DoubleIfPositive(doubled));
  return quadrupled;
}

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_FALSE(DoubleIfPositive(-1).ok());
  EXPECT_EQ(DoubleIfPositive(21).value(), 42);
}

TEST(StatusMacrosTest, AssignOrReturnChains) {
  EXPECT_EQ(QuadrupleViaAssign(10).value(), 40);
  EXPECT_EQ(QuadrupleViaAssign(-5).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StatusOrDeathTest, ValueOnErrorAborts) {
  StatusOr<int> result(InternalError("boom"));
  EXPECT_DEATH(result.value(), "StatusOr::value");
}

}  // namespace
}  // namespace common
}  // namespace adahealth
