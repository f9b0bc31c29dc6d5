// Dataset characterization fingerprints for the analysis service's
// result cache.
//
// The EHR-mining survey's observation that hospital analytics workloads
// are repetitive across near-identical cohorts makes content-addressed
// caching the right admission-time optimization: two submissions of the
// same examination log with the same session options must map to the
// same key, and any change that could alter the session report (the
// data, the dictionary names that appear in knowledge descriptions, or
// any options knob) must change it.
//
// The key is a 64-bit FNV-1a digest over (a) the dataset content — the
// patient count, the raw record stream and the exam dictionary names —
// and (b) a canonical signature of every report-affecting
// SessionOptions field. The §2.1 descriptors (stats::MetaFeatures) are
// not mixed in: an ExamRecord holds only patient, exam type and day, so
// they are a pure function of (a) and could not tell apart two logs
// that (a) does not, while they cost most of the hashing time.
#ifndef ADAHEALTH_SERVICE_FINGERPRINT_H_
#define ADAHEALTH_SERVICE_FINGERPRINT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/session.h"
#include "dataset/exam_log.h"

namespace adahealth {
namespace service {

/// Incremental 64-bit FNV-1a hasher.
class Fnv1a {
 public:
  Fnv1a& Mix(const void* data, size_t size);
  Fnv1a& MixString(std::string_view text);
  Fnv1a& MixInt(int64_t value);

  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Canonical flat-text rendering of every SessionOptions field that can
/// change the bytes of a session report. persist_directory and the
/// resilience knobs are deliberately excluded: they alter side effects
/// and failure handling, not the report produced on the success path.
std::string SessionOptionsSignature(const core::SessionOptions& options);

/// 16-hex-digit fingerprint of (log, options); see file comment.
std::string DatasetFingerprint(const dataset::ExamLog& log,
                               const core::SessionOptions& options);

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_FINGERPRINT_H_
