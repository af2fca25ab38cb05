#ifndef CASPER_PERFBENCH_ORACLE_H_
#define CASPER_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/geometry.h"
#include "src/processor/public_nn_private.h"
#include "src/processor/public_range.h"
#include "src/processor/target_store.h"

/// \file
/// Brute-force answer checks. Each function recomputes the ground truth
/// from the full target list (public targets, or every cloaked region
/// the server stores) and the asker's exact position, and returns an
/// empty string when the served answer is correct or a description of
/// the first violation found:
///
///  - NN, k-NN and range over public data (Theorem 1): the answer for
///    the true position is inside the candidate list, and the client's
///    refinement equals it.
///  - Buddy NN over private data (Theorem 3): every stored region that
///    could hold the nearest other user is a candidate, the requester's
///    own region is not, and the refined region attains the minimax
///    bound.
///  - Public NN over private data: the minimax bound is the true one and
///    every region within it is a candidate.
///  - Public range count over private data: certain and possible counts
///    equal a census of the stored regions, and the expected count lies
///    between them.

namespace perfbench {

using casper::Point;
using casper::Rect;
using casper::processor::PrivateTarget;
using casper::processor::PublicTarget;

std::string CheckNearest(const std::vector<PublicTarget>& targets,
                         const Point& position,
                         const std::vector<PublicTarget>& candidates,
                         const PublicTarget& refined);

std::string CheckKNearest(const std::vector<PublicTarget>& targets,
                          const Point& position, size_t k,
                          const std::vector<PublicTarget>& candidates,
                          const std::vector<PublicTarget>& refined);

std::string CheckRange(const std::vector<PublicTarget>& targets,
                       const Point& position, double radius,
                       const std::vector<PublicTarget>& candidates,
                       const std::vector<PublicTarget>& refined);

std::string CheckBuddy(const std::vector<PrivateTarget>& stored,
                       std::optional<uint64_t> self_handle,
                       const Point& position,
                       const std::vector<PrivateTarget>& candidates,
                       const PrivateTarget& refined);

std::string CheckPublicNearest(
    const std::vector<PrivateTarget>& stored, const Point& query,
    const casper::processor::PublicNNCandidates& answer);

std::string CheckRangeCount(const std::vector<PrivateTarget>& stored,
                            const Rect& query,
                            const casper::processor::RangeCountResult& answer);

/// Tally of checks run in one benchmark run; the first few violations
/// are kept for the report.
struct CheckTally {
  uint64_t checks = 0;
  uint64_t violations = 0;
  std::vector<std::string> examples;

  void Add(const std::string& verdict);
};

/// Plants a wrong answer into each check and verifies the oracle flags
/// it (and accepts the correct one). Returns the failures, if any.
std::vector<std::string> SelfTestOracles();

}  // namespace perfbench

#endif  // CASPER_PERFBENCH_ORACLE_H_
