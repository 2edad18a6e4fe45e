#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <unordered_set>

namespace perfbench::ref {

namespace {

bool Better(double sa, uint32_t a, double sb, uint32_t b) {
  if (sa != sb) return sa > sb;
  return a < b;
}

std::string Format(const char* fmt, ...) {
  char buf[160];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace

double LorentzInner(std::span<const double> x, std::span<const double> y) {
  double s = -x[0] * y[0];
  for (size_t i = 1; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

double LorentzSqDist(std::span<const double> x, std::span<const double> y) {
  const double d = std::acosh(std::max(1.0, -LorentzInner(x, y)));
  return d * d;
}

double Eq17Score(const taxorec::ScoringSnapshot& s, uint32_t user,
                 uint32_t item) {
  double g = LorentzSqDist(s.users.row(user), s.items.row(item));
  const double a = s.alpha[user];
  if (a > 0.0) {
    g += a * LorentzSqDist(s.users_tg.row(user), s.items_tg.row(item));
  }
  return -g;
}

void Eq17Row(const taxorec::ScoringSnapshot& s, uint32_t user,
             std::vector<double>* out) {
  out->resize(s.num_items);
  for (size_t v = 0; v < s.num_items; ++v) {
    (*out)[v] = Eq17Score(s, user, static_cast<uint32_t>(v));
  }
}

std::vector<Ranked> TopK(std::span<const double> scores, size_t k,
                         std::span<const uint32_t> exclude) {
  const std::unordered_set<uint32_t> skip(exclude.begin(), exclude.end());
  std::vector<Ranked> all;
  all.reserve(scores.size());
  for (size_t v = 0; v < scores.size(); ++v) {
    if (skip.contains(static_cast<uint32_t>(v))) continue;
    if (!std::isfinite(scores[v])) continue;
    all.push_back({static_cast<uint32_t>(v), scores[v]});
  }
  const size_t top = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + top, all.end(),
                    [](const Ranked& a, const Ranked& b) {
                      return Better(a.score, a.item, b.score, b.item);
                    });
  all.resize(top);
  return all;
}

std::string CheckServedList(std::span<const uint32_t> items,
                            std::span<const double> served_scores, size_t k,
                            std::span<const double> ref_scores,
                            std::span<const uint32_t> exclude, double tol) {
  const std::unordered_set<uint32_t> skip(exclude.begin(), exclude.end());
  size_t allowed = 0;
  for (size_t v = 0; v < ref_scores.size(); ++v) {
    if (!skip.contains(static_cast<uint32_t>(v))) ++allowed;
  }
  if (items.size() != std::min(k, allowed)) {
    return Format("list holds %zu items, expected %zu", items.size(),
                  std::min(k, allowed));
  }
  std::unordered_set<uint32_t> listed;
  for (size_t i = 0; i < items.size(); ++i) {
    const uint32_t v = items[i];
    if (v >= ref_scores.size()) return "served item out of range";
    if (skip.contains(v)) {
      return Format("served excluded item %u at rank %zu", v, i);
    }
    if (!listed.insert(v).second) return "served item repeated";
    if (!(std::fabs(served_scores[i] - ref_scores[v]) <= tol)) {
      return Format("served score %.9g vs reference %.9g (item %u)",
                    served_scores[i], ref_scores[v], v);
    }
    if (i > 0 && served_scores[i] > served_scores[i - 1]) {
      return "served list not in descending score order";
    }
  }
  if (items.empty()) return "";
  const double last = ref_scores[items.back()];
  for (size_t v = 0; v < ref_scores.size(); ++v) {
    const uint32_t item = static_cast<uint32_t>(v);
    if (skip.contains(item) || listed.contains(item)) continue;
    if (ref_scores[v] > last + tol) {
      return Format("unlisted item %zu scores %.9g above last %.9g", v,
                    ref_scores[v], last);
    }
  }
  return "";
}

double Overlap(std::span<const uint32_t> want, std::span<const uint32_t> got) {
  size_t hit = 0;
  for (uint32_t w : want) {
    if (std::find(got.begin(), got.end(), w) != got.end()) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(want.size());
}

double RecallAt(std::span<const uint32_t> ranked,
                std::span<const uint32_t> targets, size_t k) {
  if (targets.empty()) return 0.0;
  size_t hit = 0;
  for (size_t r = 0; r < std::min(k, ranked.size()); ++r) {
    if (std::find(targets.begin(), targets.end(), ranked[r]) !=
        targets.end()) {
      ++hit;
    }
  }
  return static_cast<double>(hit) / static_cast<double>(targets.size());
}

double NdcgAt(std::span<const uint32_t> ranked,
              std::span<const uint32_t> targets, size_t k) {
  if (targets.empty()) return 0.0;
  double dcg = 0.0;
  for (size_t r = 0; r < std::min(k, ranked.size()); ++r) {
    if (std::find(targets.begin(), targets.end(), ranked[r]) !=
        targets.end()) {
      dcg += 1.0 / std::log2(static_cast<double>(r) + 2.0);
    }
  }
  double ideal = 0.0;
  for (size_t r = 0; r < std::min(k, targets.size()); ++r) {
    ideal += 1.0 / std::log2(static_cast<double>(r) + 2.0);
  }
  return dcg / ideal;
}

double RandomNdcgAt(size_t candidates, size_t targets, size_t k) {
  if (candidates == 0 || targets == 0) return 0.0;
  const double p = static_cast<double>(targets) /
                   static_cast<double>(candidates);
  double dcg = 0.0;
  for (size_t r = 0; r < std::min(k, candidates); ++r) {
    dcg += p / std::log2(static_cast<double>(r) + 2.0);
  }
  double ideal = 0.0;
  for (size_t r = 0; r < std::min(k, targets); ++r) {
    ideal += 1.0 / std::log2(static_cast<double>(r) + 2.0);
  }
  return dcg / ideal;
}

double HyperboloidResidual(const taxorec::Matrix& rows) {
  double worst = 0.0;
  for (size_t r = 0; r < rows.rows(); ++r) {
    const auto x = rows.row(r);
    for (double c : x) {
      if (!std::isfinite(c)) return std::numeric_limits<double>::infinity();
    }
    if (x[0] <= 0.0) return std::numeric_limits<double>::infinity();
    const double res = std::fabs(LorentzInner(x, x) + 1.0) /
                       std::max(1.0, x[0] * x[0]);
    worst = std::max(worst, res);
  }
  return worst;
}

double MaxBallNorm(const taxorec::Matrix& rows) {
  double worst = 0.0;
  for (size_t r = 0; r < rows.rows(); ++r) {
    double sq = 0.0;
    for (double c : rows.row(r)) {
      if (!std::isfinite(c)) return std::numeric_limits<double>::infinity();
      sq += c * c;
    }
    worst = std::max(worst, std::sqrt(sq));
  }
  return worst;
}

}  // namespace perfbench::ref
