// Tests for the bipartite GCN propagation: forward semantics of Eq. 13–14,
// the adjoint backward (checked against finite differences — valid
// because the operator is linear, so the check is exact up to rounding),
// and bit-identity of the fused row kernel with the unfused scalar
// sequence it replaces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "math/csr.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "nn/gcn.h"
#include "nn/mlp.h"

namespace taxorec {
namespace {

double WeightedSum(const Matrix& out, const Matrix& upstream) {
  double acc = 0.0;
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) {
      acc += out.at(r, c) * upstream.at(r, c);
    }
  }
  return acc;
}

CsrMatrix TinyGraph() {
  // 3 users, 4 items.
  return CsrMatrix::FromPairs(3, 4, {{0, 0}, {0, 1}, {1, 1}, {2, 2}, {2, 3}});
}

TEST(GcnTest, SingleLayerMatchesHandComputation) {
  const CsrMatrix x = TinyGraph();
  nn::BipartiteGcn gcn(x, /*num_layers=*/1);
  Matrix zu(3, 2), zv(4, 2);
  // Distinct values to catch index mix-ups.
  for (size_t r = 0; r < 3; ++r) zu.at(r, 0) = static_cast<double>(r + 1);
  for (size_t r = 0; r < 4; ++r) zv.at(r, 1) = static_cast<double>(r + 1);
  nn::GcnContext ctx;
  Matrix ou, ov;
  gcn.Forward(zu, zv, &ctx, &ou, &ov);
  // out_u(0) = (zu(0) + mean(zv(0), zv(1))) / 2:
  EXPECT_DOUBLE_EQ(ou.at(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(ou.at(0, 1), (1.0 + 2.0) / 2.0 / 2.0);
  // out_v(1) = (zv(1) + mean(zu(0), zu(1))) / 2:
  EXPECT_DOUBLE_EQ(ov.at(1, 0), (1.0 + 2.0) / 2.0 / 2.0);
  EXPECT_DOUBLE_EQ(ov.at(1, 1), 1.0);
  // Item 2 only connects to user 2.
  EXPECT_DOUBLE_EQ(ov.at(2, 0), 1.5);
}

TEST(GcnTest, IsolatedNodesDecayGeometrically) {
  // An isolated node receives no neighbour mass; with the averaged residual
  // its embedding halves per layer, so the 3-layer sum is (1/2+1/4+1/8)x.
  const CsrMatrix x = CsrMatrix::FromPairs(2, 2, {{0, 0}});
  nn::BipartiteGcn gcn(x, /*num_layers=*/3);
  Matrix zu(2, 1), zv(2, 1);
  zu.at(1, 0) = 5.0;  // isolated user
  zv.at(1, 0) = 7.0;  // isolated item
  nn::GcnContext ctx;
  Matrix ou, ov;
  gcn.Forward(zu, zv, &ctx, &ou, &ov);
  EXPECT_DOUBLE_EQ(ou.at(1, 0), 5.0 * 0.875);
  EXPECT_DOUBLE_EQ(ov.at(1, 0), 7.0 * 0.875);
}

TEST(GcnTest, BackwardIsExactAdjoint) {
  // For a linear operator F, <upstream, F(x)> must equal <F^T(upstream), x>
  // for all x, upstream — verify with random draws.
  Rng rng(31);
  const CsrMatrix x = TinyGraph();
  for (int layers = 1; layers <= 4; ++layers) {
    nn::BipartiteGcn gcn(x, layers);
    for (int trial = 0; trial < 5; ++trial) {
      Matrix zu(3, 3), zv(4, 3), uu(3, 3), uv(4, 3);
      zu.FillGaussian(&rng, 1.0);
      zv.FillGaussian(&rng, 1.0);
      uu.FillGaussian(&rng, 1.0);
      uv.FillGaussian(&rng, 1.0);
      nn::GcnContext ctx;
      Matrix ou, ov;
      gcn.Forward(zu, zv, &ctx, &ou, &ov);
      Matrix gu, gv;
      gcn.Backward(uu, uv, &gu, &gv);
      const double lhs = WeightedSum(ou, uu) + WeightedSum(ov, uv);
      const double rhs = WeightedSum(zu, gu) + WeightedSum(zv, gv);
      EXPECT_NEAR(lhs, rhs, 1e-9 * std::max(1.0, std::abs(lhs)))
          << "layers=" << layers;
    }
  }
}

TEST(LightGcnPropagationTest, BackwardIsExactAdjoint) {
  Rng rng(33);
  const CsrMatrix x = TinyGraph();
  for (int layers = 1; layers <= 3; ++layers) {
    nn::LightGcnPropagation gcn(x, layers);
    for (int trial = 0; trial < 5; ++trial) {
      Matrix zu(3, 3), zv(4, 3), uu(3, 3), uv(4, 3);
      zu.FillGaussian(&rng, 1.0);
      zv.FillGaussian(&rng, 1.0);
      uu.FillGaussian(&rng, 1.0);
      uv.FillGaussian(&rng, 1.0);
      nn::GcnContext ctx;
      Matrix ou, ov;
      gcn.Forward(zu, zv, &ctx, &ou, &ov);
      Matrix gu, gv;
      gcn.Backward(uu, uv, &gu, &gv);
      const double lhs = WeightedSum(ou, uu) + WeightedSum(ov, uv);
      const double rhs = WeightedSum(zu, gu) + WeightedSum(zv, gv);
      EXPECT_NEAR(lhs, rhs, 1e-9 * std::max(1.0, std::abs(lhs)))
          << "layers=" << layers;
    }
  }
}

TEST(LightGcnPropagationTest, NoSelfConnectionAtOneLayer) {
  // With a single layer, a node's own layer-0 embedding contributes only
  // through the mean with its (neighbour-aggregated) layer-1 value — there
  // is no residual self term inside the propagation itself.
  const CsrMatrix x = TinyGraph();
  nn::LightGcnPropagation gcn(x, 1);
  Matrix zu(3, 1), zv(4, 1);
  zu.at(0, 0) = 2.0;  // only user 0 carries signal
  nn::GcnContext ctx;
  Matrix ou, ov;
  gcn.Forward(zu, zv, &ctx, &ou, &ov);
  // out_u(0) = (z0 + Â·0) / 2 = 1.0 — the self signal enters via the mean.
  EXPECT_DOUBLE_EQ(ou.at(0, 0), 1.0);
  // Items 0,1 (user 0's neighbours) receive propagated signal; item 3 none.
  EXPECT_GT(ov.at(0, 0), 0.0);
  EXPECT_GT(ov.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(ov.at(3, 0), 0.0);
}

TEST(GcnTest, DeeperPropagationSpreadsInformation) {
  // With 2 layers, user 0's output should contain a contribution from
  // user 1 (via shared item 1) — a neighbours-of-neighbours effect.
  const CsrMatrix x = TinyGraph();
  Matrix zu(3, 1), zv(4, 1);
  zu.at(1, 0) = 1.0;  // Only user 1 carries signal.
  {
    nn::BipartiteGcn gcn1(x, 1);
    nn::GcnContext ctx;
    Matrix ou, ov;
    gcn1.Forward(zu, zv, &ctx, &ou, &ov);
    EXPECT_DOUBLE_EQ(ou.at(0, 0), 0.0);  // 1 layer: no u-u path yet.
  }
  {
    nn::BipartiteGcn gcn2(x, 2);
    nn::GcnContext ctx;
    Matrix ou, ov;
    gcn2.Forward(zu, zv, &ctx, &ou, &ov);
    EXPECT_GT(ou.at(0, 0), 0.0);  // 2 layers: signal arrived.
  }
}

// ---------------------------------------------------------------------------
// Bit-identity of the fused row pass (CsrMatrix::RunPass) with the unfused
// copy → MultiplyAccum → halve → Axpy sequence, written out as scalar
// loops over the CSR rows.
// ---------------------------------------------------------------------------

// out += alpha * a * dense, one scalar y += s * x per nonzero and column.
void RefMultiplyAccum(const CsrMatrix& a, const Matrix& dense, double alpha,
                      Matrix* out) {
  for (size_t r = 0; r < a.rows(); ++r) {
    const auto cols = a.RowCols(r);
    const auto w = a.RowWeights(r);
    for (size_t k = 0; k < cols.size(); ++k) {
      const double s = alpha * w[k];
      for (size_t i = 0; i < dense.cols(); ++i) {
        out->at(r, i) += s * dense.at(cols[k], i);
      }
    }
  }
}

void RefHalve(Matrix* m) {
  for (double& x : m->flat()) x *= 0.5;
}

void RefAxpy(const Matrix& x, Matrix* y) {
  for (size_t i = 0; i < x.flat().size(); ++i) y->flat()[i] += 1.0 * x.flat()[i];
}

// The BipartiteGcn operators, built as its constructor builds them.
struct RefOperators {
  explicit RefOperators(const CsrMatrix& x)
      : pui(x.RowNormalized()),
        piu(x.Transposed().RowNormalized()),
        pui_t(pui.Transposed()),
        piu_t(piu.Transposed()) {}
  CsrMatrix pui, piu, pui_t, piu_t;
};

void RefForward(const RefOperators& op, int layers, const Matrix& zu0,
                const Matrix& zv0, Matrix* out_u, Matrix* out_v) {
  *out_u = Matrix(zu0.rows(), zu0.cols());
  *out_v = Matrix(zv0.rows(), zv0.cols());
  Matrix zu = zu0, zv = zv0;
  for (int l = 0; l < layers; ++l) {
    Matrix next_u = zu;
    RefMultiplyAccum(op.pui, zv, 1.0, &next_u);
    Matrix next_v = zv;
    RefMultiplyAccum(op.piu, zu, 1.0, &next_v);
    RefHalve(&next_u);
    RefHalve(&next_v);
    RefAxpy(next_u, out_u);
    RefAxpy(next_v, out_v);
    zu = std::move(next_u);
    zv = std::move(next_v);
  }
}

void RefBackward(const RefOperators& op, int layers, const Matrix& up_u,
                 const Matrix& up_v, Matrix* grad_u, Matrix* grad_v) {
  Matrix au = up_u, av = up_v;
  for (int l = layers - 1; l >= 0; --l) {
    Matrix next_u = au;
    RefMultiplyAccum(op.piu_t, av, 1.0, &next_u);
    Matrix next_v = av;
    RefMultiplyAccum(op.pui_t, au, 1.0, &next_v);
    RefHalve(&next_u);
    RefHalve(&next_v);
    if (l >= 1) {
      RefAxpy(up_u, &next_u);
      RefAxpy(up_v, &next_v);
    }
    au = std::move(next_u);
    av = std::move(next_v);
  }
  *grad_u = std::move(au);
  *grad_v = std::move(av);
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(double)) == 0;
}

// Entries spread over many binades, so any reordered sum changes bits,
// with exact zeros of both signs mixed in.
Matrix WideRandom(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (double& x : m.flat()) {
    const uint64_t kind = rng->Uniform(16);
    if (kind == 0) {
      x = 0.0;
    } else if (kind == 1) {
      x = -0.0;
    } else {
      x = rng->NextGaussian() * std::ldexp(1.0, static_cast<int>(
                                                    rng->Uniform(41)) - 20);
    }
  }
  return m;
}

// A random user × item graph with isolated users and items and some heavy
// rows; the last user and the last item stay isolated.
CsrMatrix RandomGraph(size_t users, size_t items, Rng* rng) {
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t u = 0; u + 1 < users; ++u) {
    if (rng->Uniform(5) == 0) continue;
    const uint64_t deg = u % 7 == 0 ? 40 : 1 + rng->Uniform(6);
    for (uint64_t e = 0; e < deg; ++e) {
      edges.emplace_back(u, static_cast<uint32_t>(rng->Uniform(items - 1)));
    }
  }
  return CsrMatrix::FromPairs(users, items, std::move(edges));
}

// Runs `body` at 1 and 4 threads, on every row-kernel backend the build
// can select, and labels failures with the configuration.
template <class Body>
void ForEachConfig(Body body) {
  const int saved_threads = GetNumThreads();
  std::vector<bool> force_portable = {true};
  if (std::string(SpmmBackend()) != "portable") force_portable.push_back(false);
  for (const bool portable : force_portable) {
    ForcePortableSpmmForTest(portable);
    for (const int threads : {1, 4}) {
      SetNumThreads(threads);
      body(std::string(SpmmBackend()) + " backend, " +
           std::to_string(threads) + " threads");
    }
  }
  ForcePortableSpmmForTest(false);
  SetNumThreads(saved_threads);
}

// TaxoRec's widths (53, 13), every AVX2 tail length, and rows wider than
// one 56-column register block (65, 113).
const size_t kWidths[] = {1, 3, 4, 5, 8, 13, 53, 65, 113};

TEST(FusedRowPassTest, MultiplyAccumMatchesScalarReference) {
  Rng rng(41);
  const CsrMatrix a = RandomGraph(150, 90, &rng);
  ForEachConfig([&](const std::string& config) {
    for (const size_t d : kWidths) {
      for (const double alpha : {1.0, 0.37, -2.5}) {
        const Matrix dense = WideRandom(a.cols(), d, &rng);
        const Matrix init = WideRandom(a.rows(), d, &rng);
        Matrix want = init, got = init;
        RefMultiplyAccum(a, dense, alpha, &want);
        a.MultiplyAccum(dense, alpha, &got);
        EXPECT_TRUE(SameBits(want, got))
            << config << ", d=" << d << ", alpha=" << alpha;
      }
    }
  });
}

TEST(FusedRowPassTest, GcnForwardBackwardMatchScalarReference) {
  Rng rng(43);
  const CsrMatrix x = RandomGraph(120, 170, &rng);
  const RefOperators op(x);
  ForEachConfig([&](const std::string& config) {
    for (const int layers : {1, 3}) {
      const nn::BipartiteGcn gcn(x, layers);
      // One context and one set of outputs for every width: each call
      // lands in buffers last shaped by another width.
      nn::GcnContext ctx;
      Matrix ou, ov, gu, gv;
      for (const size_t d : kWidths) {
        const Matrix zu = WideRandom(x.rows(), d, &rng);
        const Matrix zv = WideRandom(x.cols(), d, &rng);
        Matrix want_u, want_v;
        RefForward(op, layers, zu, zv, &want_u, &want_v);
        gcn.Forward(zu, zv, &ctx, &ou, &ov);
        EXPECT_TRUE(SameBits(want_u, ou) && SameBits(want_v, ov))
            << "forward, " << config << ", L=" << layers << ", d=" << d;

        const Matrix up_u = WideRandom(x.rows(), d, &rng);
        const Matrix up_v = WideRandom(x.cols(), d, &rng);
        RefBackward(op, layers, up_u, up_v, &want_u, &want_v);
        gcn.Backward(up_u, up_v, &ctx, &gu, &gv);
        EXPECT_TRUE(SameBits(want_u, gu) && SameBits(want_v, gv))
            << "backward, " << config << ", L=" << layers << ", d=" << d;
        Matrix local_u, local_v;
        gcn.Backward(up_u, up_v, &local_u, &local_v);
        EXPECT_TRUE(SameBits(want_u, local_u) && SameBits(want_v, local_v))
            << "backward (local workspace), " << config << ", L=" << layers
            << ", d=" << d;
      }
    }
  });
}

TEST(FusedRowPassTest, LayerSumStartsFromPositiveZero) {
  // An isolated node holding -0.0 keeps -0.0 through every layer, but its
  // layer sum is 0.0 + (-0.0) = +0.0 — the value a zeroed sum plus Axpy
  // gives. Storing the first layer directly would keep the sign bit.
  const CsrMatrix x = CsrMatrix::FromPairs(2, 2, {{0, 0}});
  const nn::BipartiteGcn gcn(x, 2);
  Matrix zu(2, 5), zv(2, 5);
  for (double& v : zu.row(1)) v = -0.0;
  for (double& v : zv.row(1)) v = -0.0;
  ForEachConfig([&](const std::string& config) {
    nn::GcnContext ctx;
    Matrix ou, ov;
    gcn.Forward(zu, zv, &ctx, &ou, &ov);
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_FALSE(std::signbit(ou.at(1, i))) << config << ", col " << i;
      EXPECT_FALSE(std::signbit(ov.at(1, i))) << config << ", col " << i;
    }
  });
}

TEST(MlpTest, GradCheckThroughReluTower) {
  Rng rng(32);
  nn::Mlp mlp({4, 6, 3}, &rng);
  std::vector<double> x = {0.3, -0.7, 1.2, 0.1};
  std::vector<double> upstream = {1.0, -2.0, 0.5};
  mlp.Forward(x);
  const std::vector<double> grad_in = mlp.Backward(upstream);
  const double eps = 1e-6;
  for (size_t i = 0; i < x.size(); ++i) {
    auto xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const auto op = mlp.Forward(xp);
    const auto om = mlp.Forward(xm);
    double fd = 0.0;
    for (size_t j = 0; j < upstream.size(); ++j) {
      fd += upstream[j] * (op[j] - om[j]) / (2.0 * eps);
    }
    EXPECT_NEAR(grad_in[i], fd, 1e-4 * std::max(1.0, std::abs(fd)));
  }
}

TEST(MlpTest, StepReducesSimpleRegressionLoss) {
  Rng rng(33);
  nn::Mlp mlp({2, 8, 1}, &rng);
  // Fit y = x0 - x1 on a few points.
  const std::vector<std::vector<double>> xs = {
      {1.0, 0.0}, {0.0, 1.0}, {0.5, 0.2}, {-0.3, 0.4}};
  auto loss = [&]() {
    double acc = 0.0;
    for (const auto& x : xs) {
      const double y = x[0] - x[1];
      const double p = mlp.Forward(x)[0];
      acc += (p - y) * (p - y);
    }
    return acc;
  };
  const double before = loss();
  for (int iter = 0; iter < 200; ++iter) {
    for (const auto& x : xs) {
      const double y = x[0] - x[1];
      const double p = mlp.Forward(x)[0];
      const std::vector<double> up = {2.0 * (p - y)};
      mlp.Backward(up);
      mlp.Step(0.05);
    }
  }
  EXPECT_LT(loss(), before * 0.05);
}

}  // namespace
}  // namespace taxorec
