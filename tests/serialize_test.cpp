#include "nn/serialize.hpp"

#include "nn/gru.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace dg::nn {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Serialize, RoundTripExactValues) {
  util::Rng rng(1);
  Linear lin(4, 3, rng);
  NamedParams params;
  lin.collect(params, "lin");
  const std::string path = temp_path("dg_roundtrip.dgtp");
  ASSERT_TRUE(save_params(path, params));

  // Perturb, then load back — values must be bit-exact.
  const Matrix original = params[0].second.value();
  params[0].second.mutable_value().fill(0.0F);
  ASSERT_TRUE(load_params(path, params));
  const Matrix& restored = params[0].second.value();
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_EQ(original.data()[i], restored.data()[i]);
  std::remove(path.c_str());
}

TEST(Serialize, GruFullStateRoundTrip) {
  util::Rng rng(2);
  GruCell gru(5, 7, rng);
  NamedParams params;
  gru.collect(params, "gru");
  const std::string path = temp_path("dg_gru.dgtp");
  ASSERT_TRUE(save_params(path, params));
  util::Rng rng2(99);
  GruCell gru2(5, 7, rng2);
  NamedParams params2;
  gru2.collect(params2, "gru");
  ASSERT_TRUE(load_params(path, params2));
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Matrix& a = params[i].second.value();
    const Matrix& b = params2[i].second.value();
    for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a.data()[k], b.data()[k]);
  }
  std::remove(path.c_str());
}

TEST(Serialize, MissingNameFails) {
  util::Rng rng(3);
  Linear lin(2, 2, rng);
  NamedParams params;
  lin.collect(params, "a");
  const std::string path = temp_path("dg_missing.dgtp");
  ASSERT_TRUE(save_params(path, params));

  Linear other(2, 2, rng);
  NamedParams renamed;
  other.collect(renamed, "b");  // names differ
  EXPECT_FALSE(load_params(path, renamed));
  std::remove(path.c_str());
}

TEST(Serialize, ShapeMismatchFails) {
  util::Rng rng(4);
  Linear lin(2, 2, rng);
  NamedParams params;
  lin.collect(params, "lin");
  const std::string path = temp_path("dg_shape.dgtp");
  ASSERT_TRUE(save_params(path, params));

  Linear bigger(3, 3, rng);
  NamedParams params2;
  bigger.collect(params2, "lin");
  EXPECT_FALSE(load_params(path, params2));
  std::remove(path.c_str());
}

TEST(Serialize, RejectsGarbageFile) {
  const std::string path = temp_path("dg_garbage.dgtp");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint";
  }
  util::Rng rng(5);
  Linear lin(2, 2, rng);
  NamedParams params;
  lin.collect(params, "lin");
  EXPECT_FALSE(load_params(path, params));
  std::remove(path.c_str());
}

// A checkpoint header is untrusted input: a tensor whose claimed size exceeds
// the bytes left in the file must be rejected before anything is allocated.
TEST(Serialize, RejectsTensorLargerThanFile) {
  const std::string path = temp_path("dg_huge_tensor.dgtp");
  {
    std::ofstream out(path, std::ios::binary);
    const auto put_u32 = [&](std::uint32_t v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    out.write("DGTP", 4);
    put_u32(1);  // version
    put_u32(1);  // one entry
    put_u32(5);
    out.write("lin.w", 5);
    put_u32(1U << 30);  // rows
    put_u32(1U << 30);  // cols: 2^60 floats claimed, none present
    put_u32(0);
  }
  EXPECT_LT(std::filesystem::file_size(path), 40U);
  util::Rng rng(7);
  Linear lin(2, 2, rng);
  NamedParams params;
  lin.collect(params, "lin");
  EXPECT_FALSE(load_params(path, params));
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileFails) {
  util::Rng rng(6);
  Linear lin(2, 2, rng);
  NamedParams params;
  lin.collect(params, "lin");
  EXPECT_FALSE(load_params("/nonexistent/path/x.dgtp", params));
}

}  // namespace
}  // namespace dg::nn
