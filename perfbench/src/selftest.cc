// Hand-made cases for the reference checkers (reference.h). Every run
// executes them before its workload; a failing case stops the run.
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "workloads.h"
#include "reference.h"

namespace perfbench {

namespace {

using taxorec::Matrix;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    PERFBENCH_LOG("self-test FAILED: %s", what.c_str());
  }
}

bool Near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol;
}

/// Hyperboloid point at signed geodesic distance t from the origin along
/// the first spatial axis: (cosh t, sinh t, 0, ...).
void AxisPoint(double t, std::span<double> row) {
  for (double& x : row) x = 0.0;
  row[0] = std::cosh(t);
  row[1] = std::sinh(t);
}

void DistanceCases() {
  std::vector<double> x(3), y(3);
  AxisPoint(0.3, x);
  AxisPoint(-1.2, y);
  Expect(Near(ref::LorentzSqDist(x, y), 1.5 * 1.5, 1e-10),
         "d_H along one axis is |s - t|");
  Expect(Near(ref::LorentzSqDist(x, x), 0.0, 1e-12), "d_H(x, x) = 0");
  Expect(Near(ref::LorentzInner(x, x), -1.0, 1e-12), "<x, x>_L = -1");
}

/// Four items on the first axis, one user at the origin; the tag channel
/// reverses the order and matters only when alpha > 0.
taxorec::ScoringSnapshot TinySnapshot(double alpha) {
  taxorec::ScoringSnapshot s;
  s.kernel = taxorec::ScoreKernel::kTwoChannelLorentz;
  s.num_users = 1;
  s.num_items = 4;
  s.users = Matrix(1, 3);
  s.users_tg = Matrix(1, 3);
  s.items = Matrix(4, 3);
  s.items_tg = Matrix(4, 3);
  AxisPoint(0.0, s.users.row(0));
  AxisPoint(0.0, s.users_tg.row(0));
  const double ir[4] = {0.5, 0.1, 0.5, 1.0};  // items 0 and 2 tie
  const double tg[4] = {1.0, 2.0, 1.0, 0.0};
  for (int v = 0; v < 4; ++v) {
    AxisPoint(ir[v], s.items.row(v));
    AxisPoint(tg[v], s.items_tg.row(v));
  }
  s.alpha = {alpha};
  return s;
}

void Eq17Cases() {
  const auto s0 = TinySnapshot(0.0);
  Expect(Near(ref::Eq17Score(s0, 0, 1), -0.01, 1e-12),
         "alpha = 0 ignores the tag channel");
  const auto s1 = TinySnapshot(0.5);
  Expect(Near(ref::Eq17Score(s1, 0, 1), -(0.01 + 0.5 * 4.0), 1e-10),
         "alpha > 0 adds alpha * d_tg^2");
}

void TopKCases() {
  const auto s = TinySnapshot(0.0);
  std::vector<double> row;
  ref::Eq17Row(s, 0, &row);
  // Scores: item1 -0.01, items 0 and 2 tie at -0.25, item3 -1.
  auto top = ref::TopK(row, 3, {});
  Expect(top.size() == 3 && top[0].item == 1 && top[1].item == 0 &&
             top[2].item == 2,
         "ties rank by ascending item id");
  const std::vector<uint32_t> exclude = {1, 0};
  top = ref::TopK(row, 10, exclude);
  Expect(top.size() == 2 && top[0].item == 2 && top[1].item == 3,
         "excluded items never rank; k beyond the catalogue truncates");
  std::vector<double> with_nan = {0.5, std::nan(""), 0.7,
                                  -std::numeric_limits<double>::infinity()};
  top = ref::TopK(with_nan, 4, {});
  Expect(top.size() == 2 && top[0].item == 2 && top[1].item == 0,
         "non-finite scores never rank");
}

void ServedListCases() {
  const std::vector<double> ref_scores = {-0.25, -0.01, -0.25, -1.0, -0.5};
  const std::vector<uint32_t> exclude = {4};
  const double tol = 1e-3;
  std::vector<uint32_t> items = {1, 0, 2};
  std::vector<double> scores = {-0.01, -0.25, -0.25};
  Expect(ref::CheckServedList(items, scores, 3, ref_scores, exclude, tol)
             .empty(),
         "a correct list passes");
  items = {1, 2, 0};
  Expect(ref::CheckServedList(items, scores, 3, ref_scores, exclude, tol)
             .empty(),
         "tied items may come in either order");
  items = {1, 0, 4};
  scores = {-0.01, -0.25, -0.5};
  Expect(!ref::CheckServedList(items, scores, 3, ref_scores, {}, tol).empty(),
         "an unlisted better item (2) fails");
  Expect(!ref::CheckServedList(items, scores, 3, ref_scores, exclude, tol)
              .empty(),
         "an excluded item fails");
  items = {1, 0, 2};
  scores = {-0.01, -0.25, -0.26};
  Expect(!ref::CheckServedList(items, scores, 3, ref_scores, exclude, tol)
              .empty(),
         "a score off by more than the tolerance fails");
  items = {1, 0};
  scores = {-0.01, -0.25};
  Expect(!ref::CheckServedList(items, scores, 3, ref_scores, exclude, tol)
              .empty(),
         "a short list fails");
  items = {1, 1, 0};
  scores = {-0.01, -0.01, -0.25};
  Expect(!ref::CheckServedList(items, scores, 3, ref_scores, exclude, tol)
              .empty(),
         "a repeated item fails");
  items = {1, 3, 0, 2};
  scores = {-0.01, -1.0, -0.25, -0.25};
  Expect(!ref::CheckServedList(items, scores, 4, ref_scores, exclude, tol)
              .empty(),
         "a list out of score order fails");
}

void MetricCases() {
  const std::vector<uint32_t> ranked = {3, 1, 2};
  const std::vector<uint32_t> targets = {1, 5};
  Expect(Near(ref::RecallAt(ranked, targets, 2), 0.5), "recall@2");
  Expect(Near(ref::NdcgAt(ranked, targets, 2),
              (1.0 / std::log2(3.0)) / (1.0 + 1.0 / std::log2(3.0))),
         "ndcg@2 with a hit at rank 2 of 2 targets");
  Expect(Near(ref::NdcgAt(std::vector<uint32_t>{1, 5}, targets, 10), 1.0),
         "ideal ranking has ndcg 1");
  Expect(Near(ref::RecallAt(std::vector<uint32_t>{}, targets, 10), 0.0),
         "empty ranking recalls nothing");
  Expect(Near(ref::RandomNdcgAt(2, 1, 10), 0.5 * (1.0 + 1.0 / std::log2(3.0))),
         "random ndcg: 1 target among 2 candidates");
  Expect(Near(ref::RandomNdcgAt(5, 5, 10), 1.0),
         "random ndcg: every candidate relevant");
  Expect(Near(ref::Overlap(std::vector<uint32_t>{1, 2},
                           std::vector<uint32_t>{2, 9}),
              0.5),
         "overlap");
}

void ResidualCases() {
  Matrix on(2, 3);
  AxisPoint(0.7, on.row(0));
  AxisPoint(-2.0, on.row(1));
  Expect(ref::HyperboloidResidual(on) < 1e-14, "on-manifold rows pass");
  Matrix off = on;
  off.at(1, 0) *= 1.01;
  Expect(ref::HyperboloidResidual(off) > 1e-3, "off-manifold row fails");
  off = on;
  off.at(0, 0) = -off.at(0, 0);
  Expect(std::isinf(ref::HyperboloidResidual(off)), "lower sheet fails");
  Matrix ball(2, 2);
  ball.at(0, 0) = 0.6;
  ball.at(1, 1) = -0.7;
  Expect(Near(ref::MaxBallNorm(ball), 0.7), "ball norm");
  ball.at(1, 0) = 0.8;
  Expect(ref::MaxBallNorm(ball) >= 1.0, "point outside the ball detected");
  ball.at(0, 1) = std::nan("");
  Expect(std::isinf(ref::MaxBallNorm(ball)), "non-finite tag detected");
}

}  // namespace

int RunSelfTest() {
  g_failures = 0;
  DistanceCases();
  Eq17Cases();
  TopKCases();
  ServedListCases();
  MetricCases();
  ResidualCases();
  return g_failures;
}

}  // namespace perfbench
