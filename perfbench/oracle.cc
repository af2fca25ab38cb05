#include "perfbench/oracle.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/common/rng.h"

namespace perfbench {
namespace {

/// Independently computed distances agree to rounding noise; anything
/// beyond this is a real violation.
constexpr double kSlack = 1e-9;

template <typename T>
std::unordered_set<uint64_t> IdsOf(const std::vector<T>& items) {
  std::unordered_set<uint64_t> ids;
  ids.reserve(items.size() * 2);
  for (const T& item : items) ids.insert(item.id);
  return ids;
}

std::string Missing(const char* what, uint64_t id) {
  return std::string(what) + ": target " + std::to_string(id) +
         " is missing";
}

}  // namespace

std::string CheckNearest(const std::vector<PublicTarget>& targets,
                         const Point& position,
                         const std::vector<PublicTarget>& candidates,
                         const PublicTarget& refined) {
  if (targets.empty()) return "nn: no targets";
  double best = casper::SquaredDistance(targets.front().position, position);
  for (const PublicTarget& t : targets) {
    best = std::min(best, casper::SquaredDistance(t.position, position));
  }
  const bool held = std::any_of(
      candidates.begin(), candidates.end(), [&](const PublicTarget& t) {
        return casper::SquaredDistance(t.position, position) <= best + kSlack;
      });
  if (!held) return "nn: true nearest target is not a candidate";
  if (casper::SquaredDistance(refined.position, position) > best + kSlack) {
    return "nn: refined answer " + std::to_string(refined.id) +
           " is not the true nearest";
  }
  return "";
}

std::string CheckKNearest(const std::vector<PublicTarget>& targets,
                          const Point& position, size_t k,
                          const std::vector<PublicTarget>& candidates,
                          const std::vector<PublicTarget>& refined) {
  const size_t take = std::min(k, targets.size());
  if (take == 0) return "knn: no targets";
  std::vector<double> dist;
  dist.reserve(targets.size());
  for (const PublicTarget& t : targets) {
    dist.push_back(casper::SquaredDistance(t.position, position));
  }
  std::vector<double> kth = dist;
  std::nth_element(kth.begin(), kth.begin() + (take - 1), kth.end());
  const double bound = kth[take - 1];
  const auto candidate_ids = IdsOf(candidates);
  for (size_t i = 0; i < targets.size(); ++i) {
    if (dist[i] < bound - kSlack && candidate_ids.count(targets[i].id) == 0) {
      return Missing("knn candidates", targets[i].id);
    }
  }
  if (refined.size() != take) return "knn: refined answer has wrong size";
  std::sort(kth.begin(), kth.begin() + take);
  std::vector<double> got;
  for (const PublicTarget& t : refined) {
    got.push_back(casper::SquaredDistance(t.position, position));
  }
  std::sort(got.begin(), got.end());
  for (size_t i = 0; i < take; ++i) {
    if (std::abs(got[i] - kth[i]) > kSlack) {
      return "knn: refined answer is not the true k nearest";
    }
  }
  return "";
}

std::string CheckRange(const std::vector<PublicTarget>& targets,
                       const Point& position, double radius,
                       const std::vector<PublicTarget>& candidates,
                       const std::vector<PublicTarget>& refined) {
  const auto candidate_ids = IdsOf(candidates);
  const auto refined_ids = IdsOf(refined);
  for (const PublicTarget& t : targets) {
    const double d = casper::Distance(t.position, position);
    if (d < radius - kSlack) {
      if (candidate_ids.count(t.id) == 0) return Missing("range candidates", t.id);
      if (refined_ids.count(t.id) == 0) return Missing("range answer", t.id);
    }
  }
  for (const PublicTarget& t : refined) {
    if (casper::Distance(t.position, position) > radius + kSlack) {
      return "range: refined answer holds out-of-range target " +
             std::to_string(t.id);
    }
  }
  return "";
}

std::string CheckBuddy(const std::vector<PrivateTarget>& stored,
                       std::optional<uint64_t> self_handle,
                       const Point& position,
                       const std::vector<PrivateTarget>& candidates,
                       const PrivateTarget& refined) {
  auto is_self = [&](const PrivateTarget& r) {
    return self_handle.has_value() && r.id == *self_handle;
  };
  double bound = INFINITY;
  for (const PrivateTarget& r : stored) {
    if (!is_self(r)) bound = std::min(bound, casper::MaxDist(position, r.region));
  }
  if (!std::isfinite(bound)) return "buddy: no other stored region";
  const auto candidate_ids = IdsOf(candidates);
  if (self_handle.has_value() && candidate_ids.count(*self_handle) > 0) {
    return "buddy: requester's own region is a candidate";
  }
  for (const PrivateTarget& r : stored) {
    if (!is_self(r) && casper::MinDist(position, r.region) < bound - kSlack &&
        candidate_ids.count(r.id) == 0) {
      return Missing("buddy candidates", r.id);
    }
  }
  if (candidate_ids.count(refined.id) == 0) {
    return "buddy: refined region is not a candidate";
  }
  if (casper::MaxDist(position, refined.region) > bound + kSlack) {
    return "buddy: refined region misses the minimax bound";
  }
  return "";
}

std::string CheckPublicNearest(
    const std::vector<PrivateTarget>& stored, const Point& query,
    const casper::processor::PublicNNCandidates& answer) {
  double bound = INFINITY;
  for (const PrivateTarget& r : stored) {
    bound = std::min(bound, casper::MaxDist(query, r.region));
  }
  if (std::abs(answer.minimax_bound - bound) > kSlack) {
    return "public nn: minimax bound " + std::to_string(answer.minimax_bound) +
           " != " + std::to_string(bound);
  }
  std::unordered_set<uint64_t> candidate_ids;
  for (const auto& c : answer.candidates) {
    candidate_ids.insert(c.target.id);
    if (std::abs(c.min_dist - casper::MinDist(query, c.target.region)) >
            kSlack ||
        std::abs(c.max_dist - casper::MaxDist(query, c.target.region)) >
            kSlack) {
      return "public nn: wrong distance bounds on a candidate";
    }
  }
  for (const PrivateTarget& r : stored) {
    if (casper::MinDist(query, r.region) < bound - kSlack &&
        candidate_ids.count(r.id) == 0) {
      return Missing("public nn candidates", r.id);
    }
  }
  return "";
}

std::string CheckRangeCount(const std::vector<PrivateTarget>& stored,
                            const Rect& query,
                            const casper::processor::RangeCountResult& answer) {
  size_t certain = 0;
  size_t possible = 0;
  for (const PrivateTarget& r : stored) {
    if (query.Intersects(r.region)) ++possible;
    if (query.Contains(r.region)) ++certain;
  }
  if (answer.certain != certain || answer.possible != possible) {
    return "range count: certain/possible " + std::to_string(answer.certain) +
           "/" + std::to_string(answer.possible) + " != census " +
           std::to_string(certain) + "/" + std::to_string(possible);
  }
  if (answer.expected < static_cast<double>(certain) - kSlack ||
      answer.expected > static_cast<double>(possible) + kSlack) {
    return "range count: expected count outside [certain, possible]";
  }
  return "";
}

void CheckTally::Add(const std::string& verdict) {
  ++checks;
  if (verdict.empty()) return;
  ++violations;
  if (examples.size() < 5) examples.push_back(verdict);
}

std::vector<std::string> SelfTestOracles() {
  using casper::processor::PublicNNCandidates;
  using casper::processor::RangeCountResult;
  std::vector<std::string> failures;
  auto expect = [&failures](const char* what, const std::string& verdict,
                            bool want_violation) {
    if (verdict.empty() == want_violation) {
      failures.push_back(std::string(what) +
                         (want_violation ? ": planted error not caught"
                                         : ": correct answer rejected (" +
                                               verdict + ")"));
    }
  };

  casper::Rng rng(7);
  const Rect space(0.0, 0.0, 1.0, 1.0);
  std::vector<PublicTarget> targets;
  for (uint64_t i = 0; i < 300; ++i) {
    targets.push_back(PublicTarget{i, rng.PointIn(space)});
  }
  std::vector<PrivateTarget> regions;
  for (uint64_t i = 0; i < 300; ++i) {
    const Point c = rng.PointIn(space);
    const double w = rng.Uniform(0.001, 0.05);
    const double h = rng.Uniform(0.001, 0.05);
    regions.push_back(PrivateTarget{i, Rect(c.x, c.y, c.x + w, c.y + h)});
  }
  const Point p = rng.PointIn(space);
  auto by_distance = [&p](const PublicTarget& a, const PublicTarget& b) {
    return casper::SquaredDistance(a.position, p) <
           casper::SquaredDistance(b.position, p);
  };
  std::vector<PublicTarget> sorted = targets;
  std::sort(sorted.begin(), sorted.end(), by_distance);

  // NN: the full list is an inclusive (if not minimal) candidate list.
  expect("nn", CheckNearest(targets, p, targets, sorted[0]), false);
  expect("nn", CheckNearest(targets, p, {sorted.begin() + 1, sorted.end()},
                            sorted[1]),
         true);
  expect("nn", CheckNearest(targets, p, targets, sorted[1]), true);

  // k-NN.
  const std::vector<PublicTarget> top5(sorted.begin(), sorted.begin() + 5);
  expect("knn", CheckKNearest(targets, p, 5, targets, top5), false);
  std::vector<PublicTarget> wrong5(sorted.begin() + 1, sorted.begin() + 6);
  expect("knn", CheckKNearest(targets, p, 5, targets, wrong5), true);
  expect("knn", CheckKNearest(targets, p, 5, wrong5, wrong5), true);

  // Range.
  const double radius = 0.1;
  std::vector<PublicTarget> inside;
  for (const PublicTarget& t : targets) {
    if (casper::Distance(t.position, p) <= radius) inside.push_back(t);
  }
  expect("range", CheckRange(targets, p, radius, targets, inside), false);
  std::vector<PublicTarget> short_inside(inside.begin() + 1, inside.end());
  expect("range", CheckRange(targets, p, radius, targets, short_inside), true);
  std::vector<PublicTarget> extra = inside;
  extra.push_back(sorted.back());
  expect("range", CheckRange(targets, p, radius, targets, extra), true);

  // Buddy NN: region 0 plays the requester.
  size_t best = 1;
  for (size_t i = 1; i < regions.size(); ++i) {
    if (casper::MaxDist(p, regions[i].region) <
        casper::MaxDist(p, regions[best].region)) {
      best = i;
    }
  }
  std::vector<PrivateTarget> others(regions.begin() + 1, regions.end());
  expect("buddy", CheckBuddy(regions, 0, p, others, regions[best]), false);
  expect("buddy", CheckBuddy(regions, 0, p, regions, regions[best]), true);
  std::vector<PrivateTarget> no_best;
  for (const PrivateTarget& r : others) {
    if (r.id != regions[best].id) no_best.push_back(r);
  }
  expect("buddy", CheckBuddy(regions, 0, p, no_best, no_best.front()), true);
  expect("buddy", CheckBuddy(regions, 0, p, others,
                             regions[best == 1 ? 2 : 1]),
         true);

  // Public NN over private data.
  PublicNNCandidates pnn;
  pnn.minimax_bound = INFINITY;
  for (const PrivateTarget& r : regions) {
    pnn.minimax_bound = std::min(pnn.minimax_bound, casper::MaxDist(p, r.region));
  }
  for (const PrivateTarget& r : regions) {
    const double lo = casper::MinDist(p, r.region);
    if (lo <= pnn.minimax_bound) {
      pnn.candidates.push_back({r, lo, casper::MaxDist(p, r.region)});
    }
  }
  expect("public nn", CheckPublicNearest(regions, p, pnn), false);
  PublicNNCandidates loose = pnn;
  loose.minimax_bound *= 1.5;
  expect("public nn", CheckPublicNearest(regions, p, loose), true);
  PublicNNCandidates dropped = pnn;
  dropped.candidates.erase(dropped.candidates.begin());
  expect("public nn", CheckPublicNearest(regions, p, dropped), true);

  // Public range count over private data.
  const Rect window(0.2, 0.2, 0.6, 0.6);
  RangeCountResult counts;
  for (const PrivateTarget& r : regions) {
    if (window.Intersects(r.region)) {
      ++counts.possible;
      counts.expected += window.IntersectionArea(r.region) / r.region.Area();
    }
    if (window.Contains(r.region)) ++counts.certain;
  }
  expect("range count", CheckRangeCount(regions, window, counts), false);
  RangeCountResult off = counts;
  ++off.certain;
  expect("range count", CheckRangeCount(regions, window, off), true);
  RangeCountResult high = counts;
  high.expected = static_cast<double>(counts.possible) + 1.0;
  expect("range count", CheckRangeCount(regions, window, high), true);
  return failures;
}

}  // namespace perfbench
