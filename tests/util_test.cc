#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "util/bitmap.h"
#include "util/chacha20.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/file.h"
#include "util/histogram.h"

namespace instantdb {
namespace {

// --- coding -----------------------------------------------------------------

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  Slice in = buf;
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed32(&in, &v32));
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v32, 0xDEADBEEFu);
  EXPECT_EQ(v64, 0x0123456789ABCDEFull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  const std::vector<uint64_t> values = {
      0, 1, 127, 128, 16383, 16384, (1ull << 32) - 1, 1ull << 32,
      ~0ull};
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in = buf;
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintTruncatedFails) {
  std::string buf;
  PutVarint64(&buf, ~0ull);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Slice in(buf.data(), cut);
    uint64_t got;
    EXPECT_FALSE(GetVarint64(&in, &got)) << "cut=" << cut;
  }
}

TEST(CodingTest, VarintRandomRoundTrip) {
  Random rng(11);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.NextU64() >> (rng.Uniform(64));
    std::string buf;
    PutVarint64(&buf, v);
    Slice in = buf;
    uint64_t got;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  Slice in = buf;
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  ASSERT_TRUE(GetLengthPrefixed(&in, &c));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c.size(), 1000u);
}

TEST(OrderedCodingTest, Int64OrderPreserved) {
  const std::vector<int64_t> values = {INT64_MIN, -1000000, -1, 0, 1, 42,
                                       1000000, INT64_MAX};
  std::vector<std::string> encoded;
  for (int64_t v : values) {
    std::string buf;
    PutOrderedInt64(&buf, v);
    encoded.push_back(buf);
  }
  EXPECT_TRUE(std::is_sorted(encoded.begin(), encoded.end()));
  for (size_t i = 0; i < values.size(); ++i) {
    Slice in = encoded[i];
    int64_t got;
    ASSERT_TRUE(GetOrderedInt64(&in, &got));
    EXPECT_EQ(got, values[i]);
  }
}

TEST(OrderedCodingTest, Int64RandomOrderProperty) {
  Random rng(5);
  for (int i = 0; i < 2000; ++i) {
    const int64_t a = static_cast<int64_t>(rng.NextU64());
    const int64_t b = static_cast<int64_t>(rng.NextU64());
    std::string ea, eb;
    PutOrderedInt64(&ea, a);
    PutOrderedInt64(&eb, b);
    EXPECT_EQ(a < b, ea < eb) << a << " vs " << b;
  }
}

TEST(OrderedCodingTest, DoubleOrderPreserved) {
  const std::vector<double> values = {-1e300, -42.5, -1.0, -0.0, 0.0,
                                      1e-10, 1.0, 42.5, 1e300};
  std::vector<std::string> encoded;
  for (double v : values) {
    std::string buf;
    PutOrderedDouble(&buf, v);
    encoded.push_back(buf);
  }
  for (size_t i = 1; i < encoded.size(); ++i) {
    EXPECT_LE(encoded[i - 1], encoded[i]) << "at " << i;
  }
  for (size_t i = 0; i < values.size(); ++i) {
    Slice in = encoded[i];
    double got;
    ASSERT_TRUE(GetOrderedDouble(&in, &got));
    EXPECT_EQ(got, values[i]);
  }
}

TEST(OrderedCodingTest, StringOrderAndEscaping) {
  const std::vector<std::string> values = {
      "", std::string(1, '\0'), std::string("\0\0", 2), "a",
      std::string("a\0b", 3), "ab", "b"};
  std::vector<std::string> encoded;
  for (const auto& v : values) {
    std::string buf;
    PutOrderedString(&buf, v);
    encoded.push_back(buf);
  }
  EXPECT_TRUE(std::is_sorted(encoded.begin(), encoded.end()));
  for (size_t i = 0; i < values.size(); ++i) {
    Slice in = encoded[i];
    std::string got;
    ASSERT_TRUE(GetOrderedString(&in, &got));
    EXPECT_EQ(got, values[i]);
    EXPECT_TRUE(in.empty());
  }
}

TEST(OrderedCodingTest, StringPrefixFreeWithSuffix) {
  // A shorter string followed by a fixed suffix must not be confused with a
  // longer string: ("a", suffix) and ("a\x01", suffix) stay distinct.
  std::string e1, e2;
  PutOrderedString(&e1, "a");
  PutOrderedInt64(&e1, 1);
  PutOrderedString(&e2, std::string("a\x01", 2));
  PutOrderedInt64(&e2, 1);
  EXPECT_NE(e1, e2);
  EXPECT_LT(e1, e2);
}

// --- crc32c -----------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  char zeros[32];
  std::memset(zeros, 0, sizeof(zeros));
  EXPECT_EQ(crc32c::Value(zeros, sizeof(zeros)), 0x8A9136AAu);

  char ones[32];
  std::memset(ones, 0xFF, sizeof(ones));
  EXPECT_EQ(crc32c::Value(ones, sizeof(ones)), 0x62A8AB43u);

  char seq[32];
  for (int i = 0; i < 32; ++i) seq[i] = static_cast<char>(i);
  EXPECT_EQ(crc32c::Value(seq, sizeof(seq)), 0x46DD794Eu);
}

TEST(Crc32cTest, Extend) {
  const char* data = "hello world";
  const uint32_t whole = crc32c::Value(data, 11);
  const uint32_t part = crc32c::Value(data, 5);
  const uint32_t extended = crc32c::Value(data + 5, 6, part);
  EXPECT_EQ(whole, extended);
}

TEST(Crc32cTest, MaskRoundTrip) {
  const uint32_t crc = crc32c::Value("abc", 3);
  EXPECT_NE(crc, crc32c::Mask(crc));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Mask(crc)));
}

// --- chacha20 ---------------------------------------------------------------

TEST(ChaCha20Test, Rfc8439Vector) {
  // RFC 8439 §2.4.2 test vector.
  ChaCha20::Key key;
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i);
  ChaCha20::Nonce nonce = {0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  std::string data = plaintext;
  ChaCha20::XorStream(key, nonce, 1, data.data(), data.size());
  const unsigned char expected_first[16] = {0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68,
                                            0xf9, 0x80, 0x41, 0xba, 0x07, 0x28,
                                            0xdd, 0x0d, 0x69, 0x81};
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(data[i]), expected_first[i]) << i;
  }
  // Decrypt restores the plaintext.
  ChaCha20::XorStream(key, nonce, 1, data.data(), data.size());
  EXPECT_EQ(data, plaintext);
}

TEST(ChaCha20Test, OffsetAddressingMatchesStream) {
  ChaCha20::Key key{};
  key[0] = 7;
  ChaCha20::Nonce nonce{};
  std::string whole(300, 'A');
  ChaCha20::XorStreamAt(key, nonce, 0, whole.data(), whole.size());

  // Encrypting the same logical bytes in two pieces at their offsets gives
  // identical ciphertext.
  std::string a(130, 'A'), b(170, 'A');
  ChaCha20::XorStreamAt(key, nonce, 0, a.data(), a.size());
  ChaCha20::XorStreamAt(key, nonce, 130, b.data(), b.size());
  EXPECT_EQ(whole.substr(0, 130), a);
  EXPECT_EQ(whole.substr(130), b);
}

TEST(ChaCha20Test, DifferentKeysDiffer) {
  ChaCha20::Key k1{}, k2{};
  k2[31] = 1;
  ChaCha20::Nonce nonce{};
  std::string d1(64, 'x'), d2(64, 'x');
  ChaCha20::XorStream(k1, nonce, 0, d1.data(), d1.size());
  ChaCha20::XorStream(k2, nonce, 0, d2.data(), d2.size());
  EXPECT_NE(d1, d2);
}

// --- histogram ---------------------------------------------------------------

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_NEAR(h.Percentile(50), 50, 1);
  EXPECT_NEAR(h.Percentile(95), 95, 1);
}

TEST(HistogramTest, MergeAndClear) {
  Histogram a, b;
  a.Add(1);
  b.Add(3);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2);
  a.Clear();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.Percentile(99), 0);
}

// --- bitmap -----------------------------------------------------------------

TEST(BitmapTest, SetGetClear) {
  Bitmap bm;
  bm.Set(0);
  bm.Set(63);
  bm.Set(64);
  bm.Set(1000);
  EXPECT_TRUE(bm.Get(0));
  EXPECT_TRUE(bm.Get(63));
  EXPECT_TRUE(bm.Get(64));
  EXPECT_TRUE(bm.Get(1000));
  EXPECT_FALSE(bm.Get(1));
  EXPECT_FALSE(bm.Get(5000));  // out of range reads as unset
  bm.Clear(64);
  EXPECT_FALSE(bm.Get(64));
  EXPECT_EQ(bm.Count(), 3u);
}

TEST(BitmapTest, CountRange) {
  Bitmap bm(256);
  for (size_t i = 0; i < 256; i += 2) bm.Set(i);
  EXPECT_EQ(bm.CountRange(0, 256), 128u);
  EXPECT_EQ(bm.CountRange(0, 1), 1u);
  EXPECT_EQ(bm.CountRange(1, 2), 0u);
  EXPECT_EQ(bm.CountRange(10, 20), 5u);
  EXPECT_EQ(bm.CountRange(63, 65), 1u);  // crosses a word boundary
  EXPECT_EQ(bm.CountRange(20, 10), 0u);
}

TEST(BitmapTest, LogicalOps) {
  Bitmap a(128), b(128);
  a.Set(1);
  a.Set(2);
  a.Set(100);
  b.Set(2);
  b.Set(100);
  b.Set(101);

  Bitmap a_and = a;
  a_and.AndWith(b);
  EXPECT_EQ(a_and.Count(), 2u);
  EXPECT_TRUE(a_and.Get(2));
  EXPECT_TRUE(a_and.Get(100));

  Bitmap a_or = a;
  a_or.OrWith(b);
  EXPECT_EQ(a_or.Count(), 4u);

  Bitmap a_not = a;
  a_not.AndNotWith(b);
  EXPECT_EQ(a_not.Count(), 1u);
  EXPECT_TRUE(a_not.Get(1));
}

TEST(BitmapTest, ForEachSetAscending) {
  Bitmap bm;
  const std::vector<size_t> positions = {3, 64, 65, 200, 511};
  for (size_t p : positions) bm.Set(p);
  std::vector<size_t> seen;
  bm.ForEachSet([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, positions);
}

// --- file -------------------------------------------------------------------

class FileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_file_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(CreateDirs(dir_).ok());
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  std::string dir_;
};

TEST_F(FileTest, WriteReadRoundTrip) {
  const std::string path = dir_ + "/data.bin";
  ASSERT_TRUE(WriteStringToFile(path, "hello instantdb", true).ok());
  auto r = ReadFileToString(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "hello instantdb");
  auto size = GetFileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 15u);
}

TEST_F(FileTest, AppendableFilePreservesContents) {
  const std::string path = dir_ + "/log";
  {
    auto f = NewAppendableFile(path);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("one").ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  {
    auto f = NewAppendableFile(path);
    ASSERT_TRUE(f.ok());
    EXPECT_EQ((*f)->size(), 3u);
    ASSERT_TRUE((*f)->Append("two").ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  EXPECT_EQ(*ReadFileToString(path), "onetwo");
}

TEST_F(FileTest, RandomAccessReads) {
  const std::string path = dir_ + "/ra";
  ASSERT_TRUE(WriteStringToFile(path, "0123456789", false).ok());
  auto f = NewRandomAccessFile(path);
  ASSERT_TRUE(f.ok());
  std::string scratch;
  Slice out;
  ASSERT_TRUE((*f)->Read(3, 4, &scratch, &out).ok());
  EXPECT_EQ(out, "3456");
  // Read past EOF returns the available suffix.
  ASSERT_TRUE((*f)->Read(8, 10, &scratch, &out).ok());
  EXPECT_EQ(out, "89");
}

TEST_F(FileTest, OverwriteRangeZeroesBytes) {
  const std::string path = dir_ + "/erase";
  ASSERT_TRUE(WriteStringToFile(path, "SENSITIVE-DATA-HERE", true).ok());
  ASSERT_TRUE(OverwriteRange(path, 0, 9).ok());
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->substr(9), "-DATA-HERE");
  for (int i = 0; i < 9; ++i) EXPECT_EQ((*contents)[i], '\0');
}

TEST_F(FileTest, ListAndRemove) {
  ASSERT_TRUE(WriteStringToFile(dir_ + "/a", "1", false).ok());
  ASSERT_TRUE(WriteStringToFile(dir_ + "/b", "2", false).ok());
  ASSERT_TRUE(CreateDirIfMissing(dir_ + "/sub").ok());
  ASSERT_TRUE(WriteStringToFile(dir_ + "/sub/c", "3", false).ok());
  auto names = ListDir(dir_);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 3u);
  ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  EXPECT_FALSE(FileExists(dir_));
}

}  // namespace
}  // namespace instantdb
