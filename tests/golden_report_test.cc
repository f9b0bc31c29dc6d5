// Golden digests of rendered session reports. Table I — the optimizer's
// per-K SSE and CV metrics and its chosen K — is part of every report,
// so any change to clustering, cross-validation or the assessors that
// moves a single printed digit changes a digest here. A change that is
// meant to alter results must update the digests and say why.
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>
#include "core/report.h"
#include "core/session.h"
#include "dataset/synthetic_cohort.h"
#include "kdb/database.h"

namespace adahealth {
namespace {

// FIPS 180-4 SHA-256 of `data`, as lowercase hex.
std::string Sha256Hex(const std::string& data) {
  static constexpr std::array<uint32_t, 64> kRound = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
  std::array<uint32_t, 8> state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                   0xa54ff53a, 0x510e527f, 0x9b05688c,
                                   0x1f83d9ab, 0x5be0cd19};
  auto rotr = [](uint32_t x, int n) { return (x >> n) | (x << (32 - n)); };

  std::string message = data;
  const uint64_t bit_length = static_cast<uint64_t>(data.size()) * 8;
  message.push_back(static_cast<char>(0x80));
  while (message.size() % 64 != 56) message.push_back('\0');
  for (int shift = 56; shift >= 0; shift -= 8) {
    message.push_back(static_cast<char>((bit_length >> shift) & 0xff));
  }

  for (size_t block = 0; block < message.size(); block += 64) {
    std::array<uint32_t, 64> w{};
    for (size_t i = 0; i < 16; ++i) {
      for (size_t b = 0; b < 4; ++b) {
        w[i] = (w[i] << 8) |
               static_cast<uint8_t>(message[block + 4 * i + b]);
      }
    }
    for (size_t i = 16; i < 64; ++i) {
      const uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                          (w[i - 15] >> 3);
      const uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                          (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::array<uint32_t, 8> v = state;
    for (size_t i = 0; i < 64; ++i) {
      const uint32_t s1 = rotr(v[4], 6) ^ rotr(v[4], 11) ^ rotr(v[4], 25);
      const uint32_t choose = (v[4] & v[5]) ^ (~v[4] & v[6]);
      const uint32_t t1 = v[7] + s1 + choose + kRound[i] + w[i];
      const uint32_t s0 = rotr(v[0], 2) ^ rotr(v[0], 13) ^ rotr(v[0], 22);
      const uint32_t majority = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
      const uint32_t t2 = s0 + majority;
      v = {t1 + t2, v[0], v[1], v[2], v[3] + t1, v[4], v[5], v[6]};
    }
    for (size_t i = 0; i < 8; ++i) state[i] += v[i];
  }

  std::string hex;
  for (uint32_t word : state) {
    char buffer[9];
    std::snprintf(buffer, sizeof(buffer), "%08x", word);
    hex += buffer;
  }
  return hex;
}

TEST(GoldenReportTest, Sha256MatchesKnownAnswers) {
  EXPECT_EQ(Sha256Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      Sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

// The report of a Table I session (default options, paper-shaped
// cohort with its taxonomy) over `patients` patients.
std::string PaperReport(int32_t patients, uint64_t optimizer_seed,
                        core::RobustnessModel model) {
  dataset::CohortConfig config = dataset::PaperScaleConfig();
  config.num_patients = patients;
  auto cohort = dataset::SyntheticCohortGenerator(config).Generate();
  EXPECT_TRUE(cohort.ok()) << cohort.status().ToString();
  if (!cohort.ok()) return "";
  core::SessionOptions options;
  options.dataset_id = "paper";
  options.optimizer.seed = optimizer_seed;
  options.optimizer.model = model;
  kdb::Database db;
  auto result = core::AnalysisSession(&db).Run(cohort.value().log,
                                               &cohort.value().taxonomy,
                                               options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return "";
  return core::RenderSessionReport(result.value(), options.dataset_id);
}

// A quarter of the paper's 6,380 patients, as the paper_quarter
// benchmark workload runs it.
constexpr int32_t kQuarterPatients = 1595;

TEST(GoldenReportTest, DecisionTreeSeed1) {
  EXPECT_EQ(Sha256Hex(PaperReport(kQuarterPatients, 1,
                                  core::RobustnessModel::kDecisionTree)),
            "15d1555d73393e99676e7511eaa36a06ce077576c49c3ff5d1e56e488afef240");
}

TEST(GoldenReportTest, DecisionTreeSeed2) {
  EXPECT_EQ(Sha256Hex(PaperReport(kQuarterPatients, 2,
                                  core::RobustnessModel::kDecisionTree)),
            "d0f9e82d4024bd6c1acb5cc607517a4c527eb2328c2f00883462c6f92b5e16a1");
}

TEST(GoldenReportTest, RandomForestAssessor) {
  EXPECT_EQ(Sha256Hex(PaperReport(400, 1,
                                  core::RobustnessModel::kRandomForest)),
            "41c7323497bb719193b4d3c40f5c38b038fa6e5ef8d2e6058e1eb5e260eb202d");
}

}  // namespace
}  // namespace adahealth
