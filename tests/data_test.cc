#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "data/binning.h"
#include "data/dataset.h"
#include "data/io.h"
#include "data/matrix.h"
#include "data/partition.h"
#include "data/psi.h"
#include "data/quantile.h"
#include "data/synthetic.h"

namespace vf2boost {
namespace {

CsrMatrix SmallMatrix() {
  // 3x4:
  // [1 0 2 0]
  // [0 3 0 0]
  // [4 0 0 5]
  auto m = CsrMatrix::FromRows(
      {{{0, 1.0f}, {2, 2.0f}}, {{1, 3.0f}}, {{0, 4.0f}, {3, 5.0f}}}, 4);
  EXPECT_TRUE(m.ok());
  return m.value();
}

TEST(CsrMatrixTest, BasicAccessors) {
  CsrMatrix m = SmallMatrix();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.columns(), 4u);
  EXPECT_EQ(m.nnz(), 5u);
  EXPECT_NEAR(m.Density(), 5.0 / 12.0, 1e-12);
  EXPECT_EQ(m.At(0, 0), 1.0f);
  EXPECT_EQ(m.At(0, 1), 0.0f);
  EXPECT_EQ(m.At(2, 3), 5.0f);
}

TEST(CsrMatrixTest, RowsAreSorted) {
  auto m = CsrMatrix::FromRows({{{3, 1.0f}, {1, 2.0f}, {2, 3.0f}}}, 4);
  ASSERT_TRUE(m.ok());
  auto cols = m->RowColumns(0);
  EXPECT_TRUE(std::is_sorted(cols.begin(), cols.end()));
  EXPECT_EQ(m->At(0, 1), 2.0f);
  EXPECT_EQ(m->At(0, 3), 1.0f);
}

TEST(CsrMatrixTest, RejectsBadInput) {
  EXPECT_FALSE(CsrMatrix::FromRows({{{5, 1.0f}}}, 4).ok());  // out of range
  EXPECT_FALSE(
      CsrMatrix::FromRows({{{1, 1.0f}, {1, 2.0f}}}, 4).ok());  // duplicate
}

TEST(CsrMatrixTest, SelectColumnsRenumbers) {
  CsrMatrix m = SmallMatrix();
  CsrMatrix sub = m.SelectColumns({2, 0});
  EXPECT_EQ(sub.columns(), 2u);
  // Global col 2 -> local 0, global col 0 -> local 1.
  EXPECT_EQ(sub.At(0, 0), 2.0f);
  EXPECT_EQ(sub.At(0, 1), 1.0f);
  EXPECT_EQ(sub.At(1, 0), 0.0f);
  EXPECT_EQ(sub.At(2, 1), 4.0f);
}

TEST(CsrMatrixTest, SelectRowsReorders) {
  CsrMatrix m = SmallMatrix();
  CsrMatrix sub = m.SelectRows({2, 0});
  EXPECT_EQ(sub.rows(), 2u);
  EXPECT_EQ(sub.At(0, 0), 4.0f);
  EXPECT_EQ(sub.At(1, 2), 2.0f);
}

TEST(DatasetTest, TrainValidSplitPartitionsRows) {
  SyntheticSpec spec;
  spec.rows = 500;
  spec.cols = 10;
  spec.density = 0.5;
  Dataset data = GenerateSynthetic(spec);
  Rng rng(1);
  Dataset train, valid;
  TrainValidSplit(data, 0.8, &rng, &train, &valid);
  EXPECT_EQ(train.rows(), 400u);
  EXPECT_EQ(valid.rows(), 100u);
  EXPECT_EQ(train.labels.size(), 400u);
  EXPECT_EQ(valid.labels.size(), 100u);
  EXPECT_EQ(train.columns(), data.columns());
}

TEST(LibsvmTest, ParseAndRoundTrip) {
  const std::string text =
      "1 0:1.5 3:2.5\n"
      "# a comment\n"
      "0 1:-4\n"
      "\n"
      "1 2:0.125\n";
  auto data = ParseLibsvm(text);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->rows(), 3u);
  EXPECT_EQ(data->columns(), 4u);
  EXPECT_EQ(data->labels, (std::vector<float>{1, 0, 1}));
  EXPECT_EQ(data->features.At(0, 3), 2.5f);
  EXPECT_EQ(data->features.At(1, 1), -4.0f);

  const std::string path = ::testing::TempDir() + "/roundtrip.libsvm";
  ASSERT_TRUE(SaveLibsvm(data.value(), path).ok());
  auto back = LoadLibsvm(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows(), 3u);
  EXPECT_EQ(back->features.At(2, 2), 0.125f);
}

TEST(LibsvmTest, RejectsMalformed) {
  EXPECT_FALSE(ParseLibsvm("abc 0:1\n").ok());
  EXPECT_FALSE(ParseLibsvm("1 banana\n").ok());
  EXPECT_FALSE(ParseLibsvm("1 0:xyz\n").ok());
  EXPECT_FALSE(LoadLibsvm("/nonexistent/file.libsvm").ok());
}

TEST(QuantileTest, ExactModeSmallInput) {
  QuantileSketch sketch(1000);
  for (int i = 100; i >= 1; --i) sketch.Add(static_cast<float>(i));
  std::vector<float> cuts = sketch.GetCuts(4);
  ASSERT_EQ(cuts.size(), 3u);
  EXPECT_NEAR(cuts[0], 25, 2);
  EXPECT_NEAR(cuts[1], 50, 2);
  EXPECT_NEAR(cuts[2], 75, 2);
}

TEST(QuantileTest, ReservoirApproximatesLargeStream) {
  QuantileSketch sketch(4096, 5);
  Rng rng(3);
  for (int i = 0; i < 200000; ++i) {
    sketch.Add(static_cast<float>(rng.NextDouble()));
  }
  std::vector<float> cuts = sketch.GetCuts(10);
  ASSERT_EQ(cuts.size(), 9u);
  for (size_t k = 0; k < cuts.size(); ++k) {
    EXPECT_NEAR(cuts[k], (k + 1) / 10.0, 0.03);
  }
  EXPECT_TRUE(std::is_sorted(cuts.begin(), cuts.end()));
}

TEST(QuantileTest, ConstantStreamCollapsesToOneCut) {
  QuantileSketch sketch(100);
  for (int i = 0; i < 50; ++i) sketch.Add(7.0f);
  std::vector<float> cuts = sketch.GetCuts(20);
  EXPECT_EQ(cuts.size(), 1u);  // deduplicated
  EXPECT_EQ(cuts[0], 7.0f);
}

TEST(BinningTest, BinOfRespectsCutSemantics) {
  BinCuts cuts;
  cuts.cuts = {{1.0f, 2.0f, 3.0f}};
  EXPECT_EQ(cuts.NumBins(0), 4u);
  EXPECT_EQ(cuts.BinOf(0, 0.5f), 0u);
  EXPECT_EQ(cuts.BinOf(0, 1.0f), 1u);  // cut value goes to upper bin
  EXPECT_EQ(cuts.BinOf(0, 1.5f), 1u);
  EXPECT_EQ(cuts.BinOf(0, 3.5f), 3u);
  EXPECT_EQ(cuts.SplitValue(0, 1), 2.0f);
}

TEST(BinningTest, BinnedMatrixMatchesBinOf) {
  SyntheticSpec spec;
  spec.rows = 300;
  spec.cols = 20;
  spec.density = 0.3;
  Dataset data = GenerateSynthetic(spec);
  BinCuts cuts = ComputeBinCuts(data.features, 8);
  BinnedMatrix binned = BinnedMatrix::FromCsr(data.features, cuts);
  for (size_t r = 0; r < data.rows(); ++r) {
    const auto cols = data.features.RowColumns(r);
    const auto vals = data.features.RowValues(r);
    const auto bins = binned.RowBins(r);
    for (size_t k = 0; k < cols.size(); ++k) {
      EXPECT_EQ(bins[k], cuts.BinOf(cols[k], vals[k]));
      EXPECT_LT(bins[k], cuts.NumBins(cols[k]));
    }
  }
}

TEST(BinningTest, MaxBinsBoundsRespected) {
  SyntheticSpec spec;
  spec.rows = 1000;
  spec.cols = 5;
  spec.density = 1.0;
  Dataset data = GenerateSynthetic(spec);
  BinCuts cuts = ComputeBinCuts(data.features, 20);
  for (uint32_t f = 0; f < 5; ++f) {
    EXPECT_LE(cuts.NumBins(f), 20u);
    EXPECT_GE(cuts.NumBins(f), 2u);
  }
  EXPECT_LE(cuts.TotalBins(), 100u);
}

TEST(PartitionTest, RandomSplitCoversAllColumnsOnce) {
  Rng rng(9);
  VerticalSplitSpec spec = SplitColumnsRandomly(100, {0.5, 0.5}, &rng);
  ASSERT_EQ(spec.num_parties(), 2u);
  std::set<uint32_t> seen;
  for (const auto& cols : spec.party_columns) {
    for (uint32_t c : cols) {
      EXPECT_TRUE(seen.insert(c).second) << "column assigned twice";
    }
  }
  EXPECT_EQ(seen.size(), 100u);
  // Roughly even.
  EXPECT_NEAR(spec.party_columns[0].size(), 50, 2);
}

TEST(PartitionTest, UnevenFractions) {
  Rng rng(10);
  VerticalSplitSpec spec = SplitColumnsRandomly(50, {4.0, 1.0}, &rng);
  EXPECT_NEAR(spec.party_columns[0].size(), 40, 2);
  EXPECT_GE(spec.party_columns[1].size(), 1u);
}

TEST(PartitionTest, VerticalShardsCarryLabelsOnlyAtLabelParty) {
  SyntheticSpec sspec;
  sspec.rows = 100;
  sspec.cols = 12;
  sspec.density = 0.5;
  Dataset data = GenerateSynthetic(sspec);
  Rng rng(2);
  VerticalSplitSpec spec = SplitColumnsRandomly(12, {0.5, 0.5}, &rng);
  auto shards = PartitionVertically(data, spec, /*label_party=*/1);
  ASSERT_TRUE(shards.ok());
  ASSERT_EQ(shards->size(), 2u);
  EXPECT_FALSE((*shards)[0].has_labels());
  EXPECT_TRUE((*shards)[1].has_labels());
  EXPECT_EQ((*shards)[0].columns() + (*shards)[1].columns(), 12u);
  // Values must survive the renumbering.
  const auto& cols0 = spec.party_columns[0];
  for (size_t r = 0; r < 5; ++r) {
    for (uint32_t local = 0; local < cols0.size(); ++local) {
      EXPECT_EQ((*shards)[0].features.At(r, local),
                data.features.At(r, cols0[local]));
    }
  }
}

TEST(PartitionTest, RejectsBadSpecs) {
  Dataset data = GenerateSynthetic({.name = "x", .rows = 10, .cols = 4,
                                    .density = 1.0, .signal_strength = 1.0,
                                    .seed = 1});
  VerticalSplitSpec overlap;
  overlap.party_columns = {{0, 1}, {1, 2, 3}};
  EXPECT_FALSE(PartitionVertically(data, overlap, 1).ok());
  VerticalSplitSpec oob;
  oob.party_columns = {{0}, {9}};
  EXPECT_FALSE(PartitionVertically(data, oob, 1).ok());
  VerticalSplitSpec ok;
  ok.party_columns = {{0, 1}, {2, 3}};
  EXPECT_FALSE(PartitionVertically(data, ok, 5).ok());  // label party oob
}

TEST(SyntheticTest, ShapeMatchesSpec) {
  SyntheticSpec spec;
  spec.rows = 1000;
  spec.cols = 50;
  spec.density = 0.1;
  Dataset data = GenerateSynthetic(spec);
  EXPECT_EQ(data.rows(), 1000u);
  EXPECT_EQ(data.columns(), 50u);
  EXPECT_NEAR(data.features.Density(), 0.1, 0.01);
  // Both classes present.
  int pos = 0;
  for (float y : data.labels) pos += y > 0.5f;
  EXPECT_GT(pos, 200);
  EXPECT_LT(pos, 800);
}

TEST(SyntheticTest, DeterministicBySeed) {
  SyntheticSpec spec;
  spec.rows = 50;
  spec.cols = 10;
  spec.seed = 77;
  Dataset a = GenerateSynthetic(spec);
  Dataset b = GenerateSynthetic(spec);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.features.At(7, 3), b.features.At(7, 3));
}

TEST(SyntheticTest, PaperSpecsExist) {
  for (const char* name : {"census", "a9a", "susy", "epsilon", "rcv1",
                           "synthesis", "industry"}) {
    auto spec = PaperDatasetSpec(name, 0.01);
    ASSERT_TRUE(spec.ok()) << name;
    EXPECT_GE(spec->rows, 200u);
    EXPECT_GE(spec->cols, 8u);
    EXPECT_GT(spec->density, 0.0);
    EXPECT_LE(spec->density, 1.0);
  }
  EXPECT_FALSE(PaperDatasetSpec("mnist", 1.0).ok());
}

TEST(PsiTest, IntersectionIsCorrectAndAligned) {
  std::vector<uint64_t> a = {10, 20, 30, 40, 50};
  std::vector<uint64_t> b = {50, 15, 20, 35, 10};
  PsiResult psi = SimulatedPsi(a, b, /*salt=*/42);
  ASSERT_EQ(psi.size(), 3u);
  for (size_t k = 0; k < psi.size(); ++k) {
    EXPECT_EQ(a[psi.indices_a[k]], b[psi.indices_b[k]]);
  }
  std::set<uint64_t> matched;
  for (size_t idx : psi.indices_a) matched.insert(a[idx]);
  EXPECT_EQ(matched, (std::set<uint64_t>{10, 20, 50}));
}

TEST(PsiTest, DisjointSetsGiveEmptyResult) {
  PsiResult psi = SimulatedPsi({1, 2, 3}, {4, 5, 6}, 1);
  EXPECT_EQ(psi.size(), 0u);
}

TEST(PsiTest, OrderIsCanonicalAcrossInputPermutations) {
  std::vector<uint64_t> a = {1, 2, 3, 4};
  std::vector<uint64_t> b1 = {4, 3, 2};
  std::vector<uint64_t> b2 = {2, 3, 4};
  PsiResult r1 = SimulatedPsi(a, b1, 7);
  PsiResult r2 = SimulatedPsi(a, b2, 7);
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t k = 0; k < r1.size(); ++k) {
    // Same logical instance at position k regardless of B's input order.
    EXPECT_EQ(a[r1.indices_a[k]], a[r2.indices_a[k]]);
  }
}

}  // namespace
}  // namespace vf2boost
