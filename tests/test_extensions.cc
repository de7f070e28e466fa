#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/data/synthetic.h"
#include "src/db/stats_cache.h"
#include "src/fairness/embedding_bias.h"
#include "src/green/energy.h"
#include "src/nn/conv.h"
#include "src/nn/layers.h"
#include "src/nn/serialize.h"
#include "src/nn/train.h"
#include "src/optim/optimizer.h"
#include "src/simd/dispatch.h"

namespace dlsys {
namespace {

// ------------------------------------------------------- Serialization

TEST(SerializeTest, RoundTripRestoresParameters) {
  Rng rng(1);
  Sequential net = MakeMlp(6, {12}, 3);
  net.Init(&rng);
  const std::string path = ::testing::TempDir() + "/params.dlsy";
  ASSERT_TRUE(SaveParameters(net, path).ok());
  Sequential loaded = MakeMlp(6, {12}, 3);
  Rng rng2(999);
  loaded.Init(&rng2);  // different init, must be overwritten
  ASSERT_TRUE(LoadParameters(&loaded, path).ok());
  EXPECT_EQ(net.GetParameterVector(), loaded.GetParameterVector());
}

TEST(SerializeTest, LoadedModelPredictsIdentically) {
  Rng rng(2);
  Dataset data = MakeGaussianBlobs(200, 6, 3, 3.0, &rng);
  Sequential net = MakeMlp(6, {12}, 3);
  net.Init(&rng);
  Sgd opt(0.05);
  TrainConfig tc;
  tc.epochs = 5;
  Train(&net, &opt, data, tc);
  const std::string path = ::testing::TempDir() + "/trained.dlsy";
  ASSERT_TRUE(SaveParameters(net, path).ok());
  Sequential loaded = MakeMlp(6, {12}, 3);
  Rng rng2(3);
  loaded.Init(&rng2);
  ASSERT_TRUE(LoadParameters(&loaded, path).ok());
  Tensor a = net.Forward(data.x, CacheMode::kNoCache);
  Tensor b = loaded.Forward(data.x, CacheMode::kNoCache);
  for (int64_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(SerializeTest, ArchitectureMismatchIsRejected) {
  Rng rng(4);
  Sequential net = MakeMlp(6, {12}, 3);
  net.Init(&rng);
  const std::string path = ::testing::TempDir() + "/mismatch.dlsy";
  ASSERT_TRUE(SaveParameters(net, path).ok());
  Sequential other = MakeMlp(6, {13}, 3);
  other.Init(&rng);
  Status s = LoadParameters(&other, path);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, MissingFileIsIOError) {
  Sequential net = MakeMlp(2, {2}, 2);
  Status s = LoadParameters(&net, "/nonexistent/path/x.dlsy");
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

TEST(SerializeTest, CorruptFileIsRejected) {
  const std::string path = ::testing::TempDir() + "/corrupt.dlsy";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("garbage", 1, 7, f);
  std::fclose(f);
  Sequential net = MakeMlp(2, {2}, 2);
  EXPECT_FALSE(LoadParameters(&net, path).ok());
}

// Every corruption mode below must fail with IOError and leave the
// target net's parameters untouched.

Sequential InitedNet(uint64_t seed) {
  Sequential net = MakeMlp(4, {6}, 3);
  Rng rng(seed);
  net.Init(&rng);
  return net;
}

// Writes a valid checkpoint of `src` to `path` and returns its bytes.
std::vector<unsigned char> SaveAndSlurp(const Sequential& src,
                                        const std::string& path) {
  EXPECT_TRUE(SaveParameters(src, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<unsigned char> bytes(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteBytes(const std::string& path,
                const std::vector<unsigned char>& bytes, size_t len) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  // An empty vector's data() may be null, which fwrite must not get.
  if (len > 0) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, len, f), len);
  }
  std::fclose(f);
}

TEST(SerializeTest, TruncatedHeaderIsIOErrorAndLeavesNetUntouched) {
  Sequential src = InitedNet(31);
  const std::string path = ::testing::TempDir() + "/trunc_header.dlsy";
  auto bytes = SaveAndSlurp(src, path);
  WriteBytes(path, bytes, 10);  // cut mid-header
  Sequential net = InitedNet(32);
  const auto before = net.GetParameterVector();
  Status s = LoadParameters(&net, path);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(net.GetParameterVector(), before);
}

TEST(SerializeTest, BadMagicIsIOError) {
  Sequential src = InitedNet(33);
  const std::string path = ::testing::TempDir() + "/bad_magic.dlsy";
  auto bytes = SaveAndSlurp(src, path);
  bytes[0] = 'X';
  WriteBytes(path, bytes, bytes.size());
  Sequential net = InitedNet(34);
  const auto before = net.GetParameterVector();
  Status s = LoadParameters(&net, path);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(net.GetParameterVector(), before);
}

TEST(SerializeTest, CountLargerThanFileIsIOErrorBeforeAllocating) {
  Sequential src = InitedNet(35);
  const std::string path = ::testing::TempDir() + "/huge_count.dlsy";
  auto bytes = SaveAndSlurp(src, path);
  // Overwrite the count field (offset 8) with an absurd value: a bounds
  // check must reject it from the file size, not attempt the allocation.
  const uint64_t huge = uint64_t{1} << 40;
  std::memcpy(bytes.data() + 8, &huge, sizeof(huge));
  WriteBytes(path, bytes, bytes.size());
  Sequential net = InitedNet(36);
  const auto before = net.GetParameterVector();
  Status s = LoadParameters(&net, path);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(net.GetParameterVector(), before);
}

TEST(SerializeTest, BadCrcIsIOError) {
  Sequential src = InitedNet(37);
  const std::string path = ::testing::TempDir() + "/bad_crc.dlsy";
  auto bytes = SaveAndSlurp(src, path);
  bytes[20] ^= 0x01;  // flip one payload bit; size stays consistent
  WriteBytes(path, bytes, bytes.size());
  Sequential net = InitedNet(38);
  const auto before = net.GetParameterVector();
  Status s = LoadParameters(&net, path);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(net.GetParameterVector(), before);
}

TEST(SerializeTest, TruncatedPayloadIsIOError) {
  Sequential src = InitedNet(39);
  const std::string path = ::testing::TempDir() + "/trunc_payload.dlsy";
  auto bytes = SaveAndSlurp(src, path);
  WriteBytes(path, bytes, bytes.size() - 9);
  Sequential net = InitedNet(40);
  const auto before = net.GetParameterVector();
  Status s = LoadParameters(&net, path);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(net.GetParameterVector(), before);
}

TEST(SerializeTest, SaveLeavesNoTempFileBehind) {
  Sequential src = InitedNet(41);
  const std::string path = ::testing::TempDir() + "/atomic.dlsy";
  ASSERT_TRUE(SaveParameters(src, path).ok());
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr) << "temp file must be renamed into place";
  if (tmp != nullptr) std::fclose(tmp);
}

// LeNet as perfbench's offline_batch serves it: 268,570 parameters, a
// 1,074,280-byte payload, so the CRC fold runs its 64- and 16-byte steps
// and hands an 8-byte tail to the scalar body.
Sequential LeNetSized() {
  Sequential net;
  net.Emplace<Conv2D>(1, 4, 5, 1, 2)
      .Emplace<ReLU>()
      .Emplace<MaxPool2D>(2)
      .Emplace<Conv2D>(4, 8, 3, 1, 1)
      .Emplace<ReLU>()
      .Emplace<MaxPool2D>(2)
      .Emplace<Flatten>()
      .Emplace<Dense>(8 * 7 * 7, 512)
      .Emplace<ReLU>()
      .Emplace<Dense>(512, 128)
      .Emplace<ReLU>()
      .Emplace<Dense>(128, 10);
  return net;
}

/// Sets every parameter of \p net from \p seed's raw 64-bit draws, with
/// exact arithmetic and no distribution code, so the bytes
/// SaveParameters writes do not depend on the standard library.
void FillSeeded(Sequential* net, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> flat(static_cast<size_t>(net->NumParams()));
  for (float& v : flat) {
    v = static_cast<float>(static_cast<int64_t>(rng.Next() >> 40) -
                           (int64_t{1} << 23)) /
        static_cast<float>(1 << 23);
  }
  net->SetParameterVector(flat);
}

uint64_t Fnv1a(const std::vector<unsigned char>& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char b : bytes) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

TEST(SerializeTest, SavedBytesMatchPinnedDigest) {
  // Every kernel table's CRC must stamp what the byte-at-a-time CRC-32
  // stamps: a seeded LeNet-sized net's file hashes to the digest that
  // loop's file had, so files saved by any build load in any other.
  Sequential net = LeNetSized();
  FillSeeded(&net, 77);
  const auto bytes =
      SaveAndSlurp(net, ::testing::TempDir() + "/pinned_lenet.dlsy");
  ASSERT_EQ(bytes.size(), size_t{16 + 1074280 + 4});
  EXPECT_EQ(Fnv1a(bytes), 0x661981628a8bf15full);
}

TEST(SerializeTest, FileSavedUnderEachTableLoadsUnderEveryOther) {
  struct IsaRestore {
    simd::Isa prev = simd::ActiveIsa();
    ~IsaRestore() { simd::SetIsa(prev); }
  } restore;
  std::vector<simd::Isa> isas;
  for (simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (simd::IsaSupported(isa)) isas.push_back(isa);
  }
  Sequential net = LeNetSized();
  FillSeeded(&net, 78);
  const std::vector<float> want = net.GetParameterVector();
  std::vector<std::string> paths;
  std::vector<std::vector<unsigned char>> files;
  for (simd::Isa isa : isas) {
    simd::SetIsa(isa);
    paths.push_back(::testing::TempDir() + "/table_" + simd::IsaName(isa) +
                    ".dlsy");
    files.push_back(SaveAndSlurp(net, paths.back()));
    EXPECT_EQ(files.back(), files.front()) << simd::IsaName(isa);
  }
  for (simd::Isa isa : isas) {
    simd::SetIsa(isa);
    for (size_t i = 0; i < paths.size(); ++i) {
      Sequential loaded = LeNetSized();
      FillSeeded(&loaded, 79);
      ASSERT_TRUE(LoadParameters(&loaded, paths[i]).ok())
          << "saved under " << simd::IsaName(isas[i]) << ", loaded under "
          << simd::IsaName(isa);
      EXPECT_EQ(loaded.GetParameterVector(), want);
    }
  }
}

// A seeded, in-tree mutation driver for the v2 parser. Every mutated
// file is loaded into a net holding a sentinel pattern; the oracle is
// that nothing aborts and each load either returns OK with the net
// holding exactly the file's payload floats, or returns non-OK with the
// net bit-identical to before.

/// True when \p net's parameters, in layer order, are the floats at
/// \p floats bit for bit (compared in place: a megabyte copy per load
/// would dominate the driver's time).
bool ParamsAre(Sequential* net, const unsigned char* floats) {
  for (Tensor* t : net->Params()) {
    const size_t n = static_cast<size_t>(t->size()) * sizeof(float);
    if (std::memcmp(t->data(), floats, n) != 0) return false;
    floats += n;
  }
  return true;
}

struct FuzzCase {
  Sequential* net;            // loads go here
  std::vector<float> before;  // its sentinel parameters
  std::string path;

  /// Loads the file at path, whose bytes are \p bytes, and checks the
  /// oracle; returns whether the load was accepted.
  bool Check(const std::vector<unsigned char>& bytes,
             const std::string& what) {
    const Status s = LoadParameters(net, path);
    const size_t payload = before.size() * sizeof(float);
    if (!s.ok()) {
      EXPECT_TRUE(
          ParamsAre(net, reinterpret_cast<const unsigned char*>(before.data())))
          << what << ": rejected (" << s.ToString() << ") but the net changed";
      return false;
    }
    if (bytes.size() != 16 + payload + 4) {
      ADD_FAILURE() << what << ": accepted a " << bytes.size()
                    << "-byte file for " << payload << " payload bytes";
    } else {
      EXPECT_TRUE(ParamsAre(net, bytes.data() + 16))
          << what << ": accepted, but the net differs from the payload";
    }
    net->SetParameterVector(before);
    return true;
  }

  bool Load(const std::vector<unsigned char>& bytes, const std::string& what) {
    WriteBytes(path, bytes, bytes.size());
    return Check(bytes, what);
  }
};

/// Overwrites the byte at \p offset of the file at \p path.
void PatchByte(const std::string& path, size_t offset, unsigned char value) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fputc(value, f), value);
  ASSERT_EQ(std::fclose(f), 0);
}

std::vector<unsigned char> FlipBit(std::vector<unsigned char> bytes,
                                   size_t bit) {
  bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  return bytes;
}

std::vector<unsigned char> Splice(const std::vector<unsigned char>& head,
                                  size_t head_len,
                                  const std::vector<unsigned char>& tail,
                                  size_t tail_from) {
  std::vector<unsigned char> out(head.begin(), head.begin() + head_len);
  out.insert(out.end(), tail.begin() + tail_from, tail.end());
  return out;
}

TEST(SerializeTest, MutatedFilesAreRejectedOrLoadExactly) {
  Rng rng(80);
  const std::string dir = ::testing::TempDir();
  Sequential lenet = LeNetSized(), lenet_b = LeNetSized();
  Sequential mlp = InitedNet(81), mlp_b = InitedNet(82);
  FillSeeded(&lenet, 83);
  FillSeeded(&lenet_b, 84);
  const auto lenet_file = SaveAndSlurp(lenet, dir + "/fuzz_lenet.dlsy");
  const auto lenet_b_file = SaveAndSlurp(lenet_b, dir + "/fuzz_lenet_b.dlsy");
  const auto mlp_file = SaveAndSlurp(mlp, dir + "/fuzz_mlp.dlsy");
  const auto mlp_b_file = SaveAndSlurp(mlp_b, dir + "/fuzz_mlp_b.dlsy");

  Sequential lenet_target = LeNetSized(), mlp_target = InitedNet(85);
  FillSeeded(&lenet_target, 86);
  struct Target {
    const char* name;
    const std::vector<unsigned char>* file;
    const std::vector<unsigned char>* twin;  // same architecture
    const std::vector<unsigned char>* other;  // the other architecture
    FuzzCase fuzz;
    bool every_payload_bit;
  };
  Target targets[] = {
      {"lenet", &lenet_file, &lenet_b_file, &mlp_file,
       {&lenet_target, lenet_target.GetParameterVector(),
        dir + "/fuzz_lenet_mut.dlsy"},
       false},
      {"mlp", &mlp_file, &mlp_b_file, &lenet_file,
       {&mlp_target, mlp_target.GetParameterVector(),
        dir + "/fuzz_mlp_mut.dlsy"},
       true},
  };
  for (Target& t : targets) {
    const std::vector<unsigned char>& file = *t.file;
    FuzzCase& fuzz = t.fuzz;
    const size_t size = file.size();
    const size_t payload_end = size - 4;
    const auto tag = [&](const std::string& what) {
      return std::string(t.name) + " " + what;
    };

    // The unmutated file loads: the oracle's accepted branch runs.
    EXPECT_TRUE(fuzz.Load(file, tag("original")));

    // Single-bit flips: every header and trailer bit; every payload bit
    // of the small file, and of the large one its last 12 bytes (the
    // fold's scalar tail and last 16-byte step) and 48 seeded bits. The
    // CRC-32 detects every single-bit error, and a header flip breaks the
    // magic, the version or the count, so every one is rejected.
    std::vector<size_t> bits;
    for (size_t bit = 0; bit < 16 * 8; ++bit) bits.push_back(bit);
    if (t.every_payload_bit) {
      for (size_t bit = 16 * 8; bit < payload_end * 8; ++bit) {
        bits.push_back(bit);
      }
    } else {
      for (size_t bit = (payload_end - 12) * 8; bit < payload_end * 8; ++bit) {
        bits.push_back(bit);
      }
      for (int i = 0; i < 48; ++i) {
        bits.push_back(16 * 8 + rng.Index((payload_end - 16) * 8));
      }
    }
    for (size_t bit = payload_end * 8; bit < size * 8; ++bit) {
      bits.push_back(bit);
    }
    // The file is written once and each flip patched in place.
    WriteBytes(fuzz.path, file, size);
    for (size_t bit : bits) {
      const std::vector<unsigned char> m = FlipBit(file, bit);
      PatchByte(fuzz.path, bit / 8, m[bit / 8]);
      EXPECT_FALSE(fuzz.Check(m, tag("bit flip " + std::to_string(bit))));
      PatchByte(fuzz.path, bit / 8, file[bit / 8]);
    }

    // Truncation at every header and trailer byte (length 0 is the empty
    // file) and at 16 seeded payload offsets.
    std::vector<size_t> cuts;
    for (size_t len = 0; len <= 16; ++len) cuts.push_back(len);
    for (size_t len = payload_end; len < size; ++len) cuts.push_back(len);
    for (int i = 0; i < 16; ++i) {
      cuts.push_back(17 + rng.Index(payload_end - 17));
    }
    for (size_t len : cuts) {
      EXPECT_FALSE(fuzz.Load({file.begin(), file.begin() + len},
                             tag("truncated to " + std::to_string(len))));
    }

    // The count field (offset 8) set to values the file cannot back.
    uint64_t count = 0;
    std::memcpy(&count, file.data() + 8, sizeof(count));
    for (uint64_t bad : {uint64_t{0}, count - 1, count + 1,
                         uint64_t{1} << 40, uint64_t{1} << 63,
                         ~uint64_t{0}}) {
      std::vector<unsigned char> m = file;
      std::memcpy(m.data() + 8, &bad, sizeof(bad));
      EXPECT_FALSE(fuzz.Load(m, tag("count " + std::to_string(bad))));
    }

    // Appended bytes: 1-8 seeded bytes, and a whole float.
    for (size_t extra = 1; extra <= 8; ++extra) {
      std::vector<unsigned char> m = file;
      for (size_t i = 0; i < extra; ++i) {
        m.push_back(static_cast<unsigned char>(rng.Next()));
      }
      EXPECT_FALSE(
          fuzz.Load(m, tag("appended " + std::to_string(extra) + " bytes")));
    }

    // Splices. The other architecture's header over this payload, and
    // this header over the other's payload, declare the wrong count. The
    // same architecture's header over its twin's payload and trailer is
    // a valid file holding the twin's floats, and this header and payload
    // with the twin's trailer fail the CRC.
    const auto& twin = *t.twin;
    const auto& other = *t.other;
    EXPECT_FALSE(fuzz.Load(Splice(other, 16, file, 16),
                           tag("other header, own payload")));
    EXPECT_FALSE(fuzz.Load(Splice(file, 16, other, 16),
                           tag("own header, other payload")));
    EXPECT_TRUE(fuzz.Load(Splice(file, 16, twin, 16),
                          tag("own header, twin payload")));
    EXPECT_FALSE(fuzz.Load(Splice(file, payload_end, twin, payload_end),
                           tag("own payload, twin trailer")));
    std::remove(fuzz.path.c_str());
  }
}

// ----------------------------------------------------------- StatsCache

class StatsCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    table_ = MakeCorrelatedTable(5000, 4, 0.6, &rng);
  }
  Table table_;
};

TEST_F(StatsCacheTest, ValidatesRanges) {
  StatsCache cache(&table_, 128);
  EXPECT_FALSE(cache.RangeMean(9, 0, 100).ok());
  EXPECT_FALSE(cache.RangeMean(0, -1, 100).ok());
  EXPECT_FALSE(cache.RangeMean(0, 100, 100).ok());
  EXPECT_FALSE(cache.RangeMean(0, 0, 99999).ok());
}

// Property sweep: cached statistics match scans for many random ranges
// and several chunk sizes.
class StatsCacheSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(StatsCacheSweep, MatchesScansOnRandomRanges) {
  const int64_t chunk = GetParam();
  Rng rng(11);
  Table t = MakeCorrelatedTable(3000, 3, 0.5, &rng);
  StatsCache cache(&t, chunk);
  Rng qrng(13);
  for (int trial = 0; trial < 60; ++trial) {
    const int64_t lo = static_cast<int64_t>(qrng.Index(2999));
    const int64_t hi =
        lo + 1 + static_cast<int64_t>(qrng.Index(
                     static_cast<uint64_t>(3000 - lo)));
    const int64_t col = static_cast<int64_t>(qrng.Index(3));
    auto mean = cache.RangeMean(col, lo, hi);
    ASSERT_TRUE(mean.ok());
    EXPECT_NEAR(*mean, StatsCache::ScanMean(t, col, lo, hi), 1e-9)
        << "chunk=" << chunk << " range [" << lo << "," << hi << ")";
    auto var = cache.RangeVariance(col, lo, hi);
    ASSERT_TRUE(var.ok());
    EXPECT_NEAR(*var, StatsCache::ScanVariance(t, col, lo, hi), 1e-7);
    const int64_t col2 = (col + 1) % 3;
    auto corr = cache.RangeCorrelation(col, col2, lo, hi);
    ASSERT_TRUE(corr.ok());
    EXPECT_NEAR(*corr, StatsCache::ScanCorrelation(t, col, col2, lo, hi),
                1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, StatsCacheSweep,
                         ::testing::Values(1, 16, 100, 1024, 5000));

TEST_F(StatsCacheTest, SelfCorrelationIsOne) {
  StatsCache cache(&table_, 64);
  auto corr = cache.RangeCorrelation(2, 2, 100, 900);
  ASSERT_TRUE(corr.ok());
  EXPECT_DOUBLE_EQ(*corr, 1.0);
}

TEST_F(StatsCacheTest, PairCacheIsLazyAndSticky) {
  StatsCache cache(&table_, 64);
  EXPECT_EQ(cache.cached_pairs(), 0);
  const int64_t before = cache.MemoryBytes();
  ASSERT_TRUE(cache.RangeCorrelation(0, 1, 0, 1000).ok());
  EXPECT_EQ(cache.cached_pairs(), 1);
  EXPECT_GT(cache.MemoryBytes(), before);
  // Same pair in either order does not grow the cache.
  ASSERT_TRUE(cache.RangeCorrelation(1, 0, 10, 500).ok());
  EXPECT_EQ(cache.cached_pairs(), 1);
}

TEST_F(StatsCacheTest, CachedQueriesBeatScansOnLargeRanges) {
  Rng rng(17);
  Table big = MakeCorrelatedTable(200000, 2, 0.5, &rng);
  StatsCache cache(&big, 256);
  // Warm the pair cache.
  ASSERT_TRUE(cache.RangeCorrelation(0, 1, 0, big.rows).ok());
  Stopwatch cached_watch;
  for (int i = 0; i < 50; ++i) {
    cache.RangeCorrelation(0, 1, 1000, big.rows - 1000);
  }
  const double cached_s = cached_watch.Seconds();
  Stopwatch scan_watch;
  for (int i = 0; i < 50; ++i) {
    StatsCache::ScanCorrelation(big, 0, 1, 1000, big.rows - 1000);
  }
  const double scan_s = scan_watch.Seconds();
  EXPECT_LT(cached_s, scan_s)
      << "chunked aggregates must beat rescanning 198k rows";
}

// ------------------------------------------------------- EmbeddingBias

TEST(EmbeddingBiasTest, CosineSanity) {
  Tensor v({2, 2}, {1.0f, 0.0f, 0.0f, 1.0f});
  EXPECT_NEAR(CosineSimilarity(v, 0, 1), 0.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity(v, 0, 0), 1.0, 1e-9);
}

TEST(EmbeddingBiasTest, RejectsEmptySets) {
  EmbeddingSpace space;
  space.vectors = Tensor({2, 4});
  EXPECT_FALSE(WeatEffectSize(space).ok());
}

TEST(EmbeddingBiasTest, EffectTracksInjectedBias) {
  Rng rng(19);
  EmbeddingSpace none = MakeBiasedEmbeddings(32, 12, 0.0, &rng);
  Rng rng2(19);
  EmbeddingSpace strong = MakeBiasedEmbeddings(32, 12, 0.9, &rng2);
  auto e_none = WeatEffectSize(none);
  auto e_strong = WeatEffectSize(strong);
  ASSERT_TRUE(e_none.ok() && e_strong.ok());
  EXPECT_LT(std::abs(*e_none), 0.6) << "unbiased space ~ no effect";
  EXPECT_GT(*e_strong, 1.2) << "strong bias -> large positive effect";
}

TEST(EmbeddingBiasTest, EffectIsMonotoneInBias) {
  double prev = -10.0;
  for (double bias : {0.0, 0.3, 0.6, 0.9}) {
    Rng rng(21);
    EmbeddingSpace space = MakeBiasedEmbeddings(32, 16, bias, &rng);
    auto effect = WeatEffectSize(space);
    ASSERT_TRUE(effect.ok());
    EXPECT_GT(*effect, prev - 0.2) << "bias " << bias;
    prev = *effect;
  }
}

TEST(EmbeddingBiasTest, HardDebiasRemovesTheEffect) {
  // Large sets: Cohen's d of residual noise scales ~1/sqrt(set size).
  Rng rng(23);
  EmbeddingSpace space = MakeBiasedEmbeddings(32, 64, 0.9, &rng);
  auto before = WeatEffectSize(space);
  ASSERT_TRUE(before.ok());
  ASSERT_GT(*before, 1.0);
  ASSERT_TRUE(HardDebias(&space).ok());
  auto after = WeatEffectSize(space);
  ASSERT_TRUE(after.ok());
  EXPECT_LT(std::abs(*after), 0.5)
      << "projecting out the bias direction must collapse the effect";
}

// -------------------------------------------------- Temporal scheduling

TEST(CarbonScheduleTest, RejectsBadInput) {
  HardwareProfile hw = StandardHardware()[2];
  TrainingJob job{1e17};
  EXPECT_FALSE(CarbonAwareStartTime(job, hw, 1.2, {}, 24).ok());
  EXPECT_FALSE(CarbonAwareStartTime(job, hw, 0.5, {100.0}, 24).ok());
}

TEST(CarbonScheduleTest, InfeasibleDeadlineIsNotFound) {
  HardwareProfile hw{"slow", 1e12, 100.0, 0.5};  // 2e12 flops/hour-ish
  TrainingJob job{1e18};                         // ~555 hours
  std::vector<double> forecast(24, 100.0);
  auto choice = CarbonAwareStartTime(job, hw, 1.2, forecast, 24);
  EXPECT_FALSE(choice.ok());
  EXPECT_EQ(choice.status().code(), StatusCode::kNotFound);
}

TEST(CarbonScheduleTest, PicksTheCleanWindow) {
  HardwareProfile hw{"unit", 2e12, 1000.0, 0.5};  // 1e12 effective
  TrainingJob job{1e12 * 3600.0 * 3.0};           // exactly 3 hours
  // Dirty day with a clean overnight window at hours 10-13.
  std::vector<double> forecast(24, 500.0);
  forecast[10] = 50.0;
  forecast[11] = 40.0;
  forecast[12] = 60.0;
  auto choice = CarbonAwareStartTime(job, hw, 1.5, forecast, 24);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice->start_hour, 10);
  // kWh/h = 1000 W * 1.5 / 1000 = 1.5; CO2 = 1.5 * (50+40+60) = 225 g.
  EXPECT_NEAR(choice->co2_grams, 225.0, 1e-6);
}

TEST(CarbonScheduleTest, DeadlineLimitsTheSearch) {
  HardwareProfile hw{"unit", 2e12, 1000.0, 0.5};
  TrainingJob job{1e12 * 3600.0 * 2.0};  // 2 hours
  std::vector<double> forecast(24, 300.0);
  forecast[20] = 10.0;
  forecast[21] = 10.0;
  auto unrestricted = CarbonAwareStartTime(job, hw, 1.0, forecast, 24);
  auto restricted = CarbonAwareStartTime(job, hw, 1.0, forecast, 10);
  ASSERT_TRUE(unrestricted.ok() && restricted.ok());
  EXPECT_EQ(unrestricted->start_hour, 20);
  EXPECT_LT(restricted->start_hour, 10);
  EXPECT_GT(restricted->co2_grams, unrestricted->co2_grams);
}

}  // namespace
}  // namespace dlsys
