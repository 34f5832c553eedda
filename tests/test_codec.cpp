#include "dataio/codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"

namespace adaptviz {
namespace {

FieldView view(const std::vector<double>& v, std::size_t nx, std::size_t ny) {
  return FieldView{v.data(), nx, ny};
}

constexpr CodecPrecision kF64 = CodecPrecision::kFloat64;
constexpr CodecPrecision kF32 = CodecPrecision::kFloat32;

// What the default (float32) precision makes of a double field: the
// narrowed values widened back, which is what decode_frame must return.
std::vector<double> narrowed32(const std::vector<double>& v) {
  std::vector<double> out(v.size());
  for (std::size_t k = 0; k < v.size(); ++k) {
    out[k] = static_cast<double>(static_cast<float>(v[k]));
  }
  return out;
}

std::vector<double> random_field(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1e6, 1e6);
  std::vector<double> f(n);
  for (double& x : f) x = dist(rng);
  return f;
}

// A spatially smooth AR(1) field: each point mixes its west/north neighbors
// with a small innovation, the standard stand-in for geophysical fields.
std::vector<double> ar1_field(std::size_t nx, std::size_t ny,
                              std::uint32_t seed, double rho = 0.995) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> noise(0.0, 1.0);
  std::vector<double> f(nx * ny);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const double w = i > 0 ? f[j * nx + i - 1] : 0.0;
      const double n = j > 0 ? f[(j - 1) * nx + i] : 0.0;
      const double base = i > 0 && j > 0 ? 0.5 * (w + n) : (i > 0 ? w : n);
      f[j * nx + i] = rho * base + (1.0 - rho) * noise(rng);
    }
  }
  return f;
}

// ---- Exact roundtrip ----

TEST(Codec, RoundtripExactOnRandomFields) {
  for (std::uint32_t seed : {1u, 7u, 42u}) {
    const std::vector<double> cur = random_field(31 * 17, seed);
    const CompressedFrame frame = encode_frame(view(cur, 31, 17), nullptr, nullptr, kF64);
    EXPECT_EQ(decode_frame(frame, nullptr), cur) << "seed " << seed;
  }
}

TEST(Codec, RoundtripExactWithPreviousFrame) {
  const std::vector<double> prev = ar1_field(40, 25, 3);
  std::vector<double> cur = prev;
  std::mt19937 rng(11);
  std::normal_distribution<double> nudge(0.0, 1e-4);
  for (double& x : cur) x += nudge(rng);
  const FieldView pv = view(prev, 40, 25);
  const CompressedFrame frame = encode_frame(view(cur, 40, 25), &pv, nullptr, kF64);
  EXPECT_EQ(decode_frame(frame, &pv), cur);
}

TEST(Codec, RoundtripPreservesSpecialValues) {
  std::vector<double> cur = {0.0,
                             -0.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             1.0};
  const CompressedFrame frame = encode_frame(view(cur, 4, 2), nullptr, nullptr, kF64);
  const std::vector<double> got = decode_frame(frame, nullptr);
  ASSERT_EQ(got.size(), cur.size());
  for (std::size_t k = 0; k < cur.size(); ++k) {
    std::uint64_t a, b;
    std::memcpy(&a, &cur[k], 8);
    std::memcpy(&b, &got[k], 8);
    EXPECT_EQ(a, b) << "element " << k;  // bit compare: NaN != NaN as doubles
  }
}

// ---- Compression ratio ----

TEST(Codec, SmoothFieldCompressesAtLeastBreakEven) {
  const std::vector<double> cur = ar1_field(64, 48, 5);
  const CompressedFrame frame = encode_frame(view(cur, 64, 48), nullptr, nullptr, kF64);
  EXPECT_GE(frame.ratio(), 1.0);
  EXPECT_EQ(decode_frame(frame, nullptr), cur);
}

TEST(Codec, TemporalDeltaBeatsBreakEvenOnCorrelatedFrames) {
  const std::vector<double> prev = ar1_field(64, 48, 9);
  std::vector<double> cur = prev;
  for (double& x : cur) x *= 1.0 + 1e-6;  // slow, smooth evolution
  const FieldView pv = view(prev, 64, 48);
  const CompressedFrame frame = encode_frame(view(cur, 64, 48), &pv, nullptr, kF64);
  EXPECT_EQ(frame.mode, CompressedFrame::Mode::kDelta);
  EXPECT_GE(frame.ratio(), 1.0);
  EXPECT_EQ(decode_frame(frame, &pv), cur);
}

TEST(Codec, IncompressibleInputIsBoundedByRawPlusHeader) {
  // Uniformly random 64-bit patterns: every byte plane is white noise, so
  // no predictor can help and the encoder must take the raw escape.
  std::mt19937_64 rng(13);
  std::vector<double> cur(50 * 50);
  for (double& x : cur) {
    const std::uint64_t b = rng();
    std::memcpy(&x, &b, sizeof x);
  }
  const CompressedFrame frame = encode_frame(view(cur, 50, 50), nullptr, nullptr, kF64);
  EXPECT_EQ(frame.mode, CompressedFrame::Mode::kRaw);
  EXPECT_LE(frame.encoded_bytes(), frame.raw_bytes() + 16);
  const std::vector<double> got = decode_frame(frame, nullptr);
  ASSERT_EQ(got.size(), cur.size());
  // memcmp, not ==: random bit patterns include NaNs.
  EXPECT_EQ(std::memcmp(got.data(), cur.data(), cur.size() * sizeof(double)),
            0);
}

// ---- Edge cases ----

TEST(Codec, EmptyField) {
  const std::vector<double> none;
  const CompressedFrame frame = encode_frame(view(none, 0, 0), nullptr);
  EXPECT_EQ(frame.raw_bytes(), 0u);
  EXPECT_DOUBLE_EQ(frame.ratio(), 1.0);
  EXPECT_TRUE(decode_frame(frame, nullptr).empty());
}

TEST(Codec, FirstFrameHasNoPreviousAndStillRoundtrips) {
  const std::vector<double> cur = ar1_field(20, 20, 21);
  const CompressedFrame frame = encode_frame(view(cur, 20, 20), nullptr, nullptr, kF64);
  EXPECT_NE(frame.mode, CompressedFrame::Mode::kDelta);
  EXPECT_EQ(decode_frame(frame, nullptr), cur);
}

TEST(Codec, ResolutionChangeDisablesTemporalDelta) {
  // Previous frame at a different shape: the encoder must not difference
  // across the resolution switch.
  const std::vector<double> prev = ar1_field(40, 40, 2);
  const std::vector<double> cur = ar1_field(20, 20, 2);
  const FieldView pv = view(prev, 40, 40);
  const CompressedFrame frame = encode_frame(view(cur, 20, 20), &pv, nullptr, kF64);
  EXPECT_NE(frame.mode, CompressedFrame::Mode::kDelta);
  EXPECT_EQ(decode_frame(frame, &pv), cur);
}

TEST(Codec, SingleRowAndSingleColumnFields) {
  const std::vector<double> row = ar1_field(33, 1, 4);
  const CompressedFrame fr = encode_frame(view(row, 33, 1), nullptr, nullptr, kF64);
  EXPECT_EQ(decode_frame(fr, nullptr), row);

  const std::vector<double> col = ar1_field(1, 33, 4);
  const CompressedFrame fc = encode_frame(view(col, 1, 33), nullptr, nullptr, kF64);
  EXPECT_EQ(decode_frame(fc, nullptr), col);
}

TEST(Codec, ConstantFieldCompressesHard) {
  const std::vector<double> cur(128 * 128, 3.25);
  const CompressedFrame frame = encode_frame(view(cur, 128, 128), nullptr, nullptr, kF64);
  EXPECT_GE(frame.ratio(), 100.0);
  EXPECT_EQ(decode_frame(frame, nullptr), cur);
}

// ---- Frame-file precision (float32, the default) ----

TEST(Codec, Float32RoundtripIsExactOnNarrowedValues) {
  for (std::uint32_t seed : {1u, 9u}) {
    const std::vector<double> cur = random_field(30 * 22, seed);
    const CompressedFrame frame =
        encode_frame(view(cur, 30, 22), nullptr, nullptr, kF32);
    EXPECT_EQ(frame.precision, CodecPrecision::kFloat32);
    EXPECT_EQ(frame.raw_bytes(), 30u * 22u * 4u);
    EXPECT_EQ(decode_frame(frame, nullptr), narrowed32(cur)) << "seed "
                                                             << seed;
  }
}

TEST(Codec, Float32DeltaRoundtripsAgainstDoublePrev) {
  const std::vector<double> prev = ar1_field(48, 32, 15);
  std::vector<double> cur = prev;
  for (double& x : cur) x *= 1.0 + 1e-5;
  const FieldView pv = view(prev, 48, 32);
  const CompressedFrame frame = encode_frame(view(cur, 48, 32), &pv, nullptr, kF32);
  EXPECT_EQ(decode_frame(frame, &pv), narrowed32(cur));
}

TEST(Codec, Float32SmoothFieldCompressesWell) {
  // Intra-only floor on a synthetic AR(1) field whose innovations are far
  // rougher than real simulation output; the >= 2x acceptance number is
  // measured by bench_codec on real consecutive frames, where the
  // second-order temporal predictor applies.
  const std::vector<double> cur = ar1_field(96, 64, 17);
  const CompressedFrame frame = encode_frame(view(cur, 96, 64), nullptr, nullptr, kF32);
  EXPECT_GE(frame.ratio(), 1.1);
  EXPECT_EQ(decode_frame(frame, nullptr), narrowed32(cur));
}

// ---- Second-order temporal prediction ----

TEST(Codec, Delta2WinsOnLinearlyEvolvingFrames) {
  // Three frames of a steadily advecting field: cur sits close to the
  // linear extrapolation 2*prev - prev2, so the second-order predictor
  // should beat both plain delta and intra.
  const std::vector<double> base = ar1_field(48, 40, 23);
  std::vector<double> prev2v = base, prevv = base, curv = base;
  for (std::size_t k = 0; k < base.size(); ++k) {
    const double trend = 1e-3 * base[k];
    prevv[k] += trend;
    curv[k] += 2.0 * trend;
  }
  const FieldView p2 = view(prev2v, 48, 40);
  const FieldView p1 = view(prevv, 48, 40);
  const CompressedFrame frame =
      encode_frame(view(curv, 48, 40), &p1, &p2, kF64);
  EXPECT_EQ(frame.mode, CompressedFrame::Mode::kDelta2);
  EXPECT_GE(frame.ratio(), 1.0);
  EXPECT_EQ(decode_frame(frame, &p1, &p2), curv);
}

TEST(Codec, Delta2RequiresBothHistoryFramesToDecode) {
  const std::vector<double> base = ar1_field(32, 32, 29);
  std::vector<double> prev2v = base, prevv = base, curv = base;
  for (std::size_t k = 0; k < base.size(); ++k) {
    prevv[k] += 1e-6;
    curv[k] += 2e-6;
  }
  const FieldView p2 = view(prev2v, 32, 32);
  const FieldView p1 = view(prevv, 32, 32);
  const CompressedFrame frame =
      encode_frame(view(curv, 32, 32), &p1, &p2, kF64);
  ASSERT_EQ(frame.mode, CompressedFrame::Mode::kDelta2);
  EXPECT_THROW(decode_frame(frame, &p1, nullptr), std::invalid_argument);
  EXPECT_THROW(decode_frame(frame, nullptr, &p2), std::invalid_argument);
  const FieldView wrong = view(prev2v, 64, 16);
  EXPECT_THROW(decode_frame(frame, &p1, &wrong), std::invalid_argument);
}

TEST(Codec, DeltaDelta2TieGoesToDelta) {
  // cur == prev == prev2: both temporal residual streams are all zeros
  // and code to the same bytes, so the earlier mode must win the tie.
  const std::vector<double> held = ar1_field(24, 24, 37);
  const FieldView hv = view(held, 24, 24);
  for (CodecPrecision precision : {kF32, kF64}) {
    const CompressedFrame frame = encode_frame(hv, &hv, &hv, precision);
    EXPECT_EQ(frame.mode, CompressedFrame::Mode::kDelta);
  }
}

TEST(Codec, Prev2AloneNeverSelectsDelta2) {
  // A stale prev2 without a usable prev (e.g. the frame right after a
  // resolution change) must not enable temporal prediction.
  const std::vector<double> cur = ar1_field(24, 24, 31);
  const std::vector<double> old = ar1_field(24, 24, 32);
  const FieldView p2 = view(old, 24, 24);
  const CompressedFrame frame =
      encode_frame(view(cur, 24, 24), nullptr, &p2, kF64);
  EXPECT_NE(frame.mode, CompressedFrame::Mode::kDelta);
  EXPECT_NE(frame.mode, CompressedFrame::Mode::kDelta2);
  EXPECT_EQ(decode_frame(frame, nullptr, nullptr), cur);
}

// ---- Golden payload bytes ----
//
// The encoded size of every frame is science (it sets the modeled frame
// bytes that disk, WAN, cache and the LP charge), so the entropy stage
// must emit the same bytes whatever its implementation. These tests pin an
// FNV-1a digest of every payload byte, and the mode sequence, of a
// scripted multi-frame stream that exercises all four modes and a
// resolution change at both precisions.

// splitmix64: a fixed integer generator, so the stream is the same on every
// platform and standard library (<random>'s distributions are
// implementation-defined).
std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Uniform integer in [-amp, amp].
std::int64_t noise(std::uint64_t& state, std::int64_t amp) {
  return static_cast<std::int64_t>(splitmix(state) %
                                   static_cast<std::uint64_t>(2 * amp + 1)) -
         amp;
}

struct GoldenFrame {
  std::vector<double> values;
  std::size_t nx = 0, ny = 0;
};

// One stream of the scripted sequence, built on an integer lattice: a
// rough static texture (which defeats the spatial predictor) plus a smooth
// quadratic, advanced in time by a smooth drift and small per-frame noise.
// Values are lattice / 3.0, one correctly rounded division, so every
// mantissa bit is used and no libm call or FMA contraction can change them.
class GoldenStream {
 public:
  GoldenStream(std::size_t nx, std::size_t ny, std::uint64_t seed)
      : nx_(nx), ny_(ny), rng_(seed), lattice_(nx * ny) {
    for (std::size_t j = 0; j < ny; ++j) {
      for (std::size_t i = 0; i < nx; ++i) {
        const auto x = static_cast<std::int64_t>(i);
        const auto y = static_cast<std::int64_t>(j);
        lattice_[j * nx + i] = 40 * x * x - 17 * x * y + 25 * y * y +
                               noise(rng_, 100000);
      }
    }
  }

  // Smooth drift plus small noise: the temporal predictors' regime.
  GoldenFrame drift() {
    for (std::size_t k = 0; k < lattice_.size(); ++k) {
      const auto x = static_cast<std::int64_t>(k % nx_);
      const auto y = static_cast<std::int64_t>(k / nx_);
      lattice_[k] += 30 * x - 20 * y + 900 + noise(rng_, 2);
    }
    return frame();
  }
  // Independent random jumps: a random walk, where plain delta beats delta2.
  GoldenFrame jump() {
    for (std::int64_t& v : lattice_) v += noise(rng_, 300);
    return frame();
  }
  GoldenFrame frame() const {
    GoldenFrame f{std::vector<double>(lattice_.size()), nx_, ny_};
    for (std::size_t k = 0; k < lattice_.size(); ++k) {
      f.values[k] = static_cast<double>(lattice_[k]) / 3.0;
    }
    return f;
  }

 private:
  std::size_t nx_, ny_;
  std::uint64_t rng_;
  std::vector<std::int64_t> lattice_;
};

// A texture-free smooth quadratic: only the spatial predictor helps.
GoldenFrame golden_smooth(std::size_t nx, std::size_t ny) {
  GoldenFrame f{std::vector<double>(nx * ny), nx, ny};
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const auto x = static_cast<std::int64_t>(i);
      const auto y = static_cast<std::int64_t>(j);
      f.values[j * nx + i] =
          static_cast<double>(7 * x * x + 3 * x * y - 5 * y * y + 1000) / 3.0;
    }
  }
  return f;
}

// Uniformly random bit patterns at the coded width (NaN exponents
// excluded, so narrowing cannot touch them): only the raw escape fits.
GoldenFrame golden_noise(std::size_t nx, std::size_t ny,
                         CodecPrecision precision, std::uint64_t seed) {
  GoldenFrame f{std::vector<double>(nx * ny), nx, ny};
  for (double& v : f.values) {
    const std::uint64_t bits = splitmix(seed);
    if (precision == kF32) {
      std::uint32_t b = static_cast<std::uint32_t>(bits);
      if (((b >> 23) & 0xff) == 0xff) b ^= 0x00800000u;
      float x;
      std::memcpy(&x, &b, sizeof x);
      v = static_cast<double>(x);
    } else {
      std::uint64_t b = bits;
      if (((b >> 52) & 0x7ff) == 0x7ff) b ^= 0x0010000000000000ull;
      std::memcpy(&v, &b, sizeof v);
    }
  }
  return f;
}

// intra, delta, delta2 x2, delta x2 (random walk), intra (smooth), raw,
// then a resolution change: intra, delta, delta2 x2 at the new shape, and
// two held frames (the second an exact delta/delta2 tie, which the
// earlier mode must win).
std::vector<GoldenFrame> golden_sequence(CodecPrecision precision) {
  std::vector<GoldenFrame> seq;
  GoldenStream a(24, 16, 19);
  seq.push_back(a.frame());
  for (int k = 0; k < 3; ++k) seq.push_back(a.drift());
  seq.push_back(a.jump());
  seq.push_back(a.jump());
  seq.push_back(golden_smooth(24, 16));
  seq.push_back(golden_noise(24, 16, precision, 77));
  GoldenStream b(20, 12, 31);
  seq.push_back(b.frame());
  for (int k = 0; k < 3; ++k) seq.push_back(b.drift());
  seq.push_back(b.frame());
  seq.push_back(b.frame());
  return seq;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv1a(std::uint64_t& h, const std::uint8_t* p, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    h ^= p[k];
    h *= kFnvPrime;
  }
}

char mode_letter(CompressedFrame::Mode mode) {
  switch (mode) {
    case CompressedFrame::Mode::kRaw: return 'R';
    case CompressedFrame::Mode::kIntra: return 'I';
    case CompressedFrame::Mode::kDelta: return 'D';
    case CompressedFrame::Mode::kDelta2: return 'T';
  }
  return '?';
}

struct GoldenDigest {
  std::uint64_t hash = kFnvOffset;
  std::string modes;
};

// Encodes the sequence with the two-frame history FrameFieldCodec keeps,
// folds every frame's mode byte and payload into one FNV-1a digest, and
// checks each frame decodes back bit for bit.
GoldenDigest encode_golden(CodecPrecision precision) {
  GoldenDigest d;
  const std::vector<GoldenFrame> seq = golden_sequence(precision);
  for (std::size_t t = 0; t < seq.size(); ++t) {
    const FieldView cur = view(seq[t].values, seq[t].nx, seq[t].ny);
    const FieldView p1 =
        t >= 1 ? view(seq[t - 1].values, seq[t - 1].nx, seq[t - 1].ny)
               : FieldView{};
    const FieldView p2 =
        t >= 2 ? view(seq[t - 2].values, seq[t - 2].nx, seq[t - 2].ny)
               : FieldView{};
    const CompressedFrame f = encode_frame(cur, t >= 1 ? &p1 : nullptr,
                                           t >= 2 ? &p2 : nullptr, precision);
    const auto mode = static_cast<std::uint8_t>(f.mode);
    fnv1a(d.hash, &mode, 1);
    fnv1a(d.hash, f.payload.data(), f.payload.size());
    d.modes += mode_letter(f.mode);
    const std::vector<double> back = decode_frame(f, &p1, &p2);
    const std::vector<double> want =
        precision == kF32 ? narrowed32(seq[t].values) : seq[t].values;
    EXPECT_EQ(std::memcmp(back.data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << "frame " << t;
  }
  return d;
}

TEST(Codec, DecodeRejectsTrailingBytesAfterRangeCodedBody) {
  // A valid range-coded stream ends exactly at the payload's end, so any
  // appended byte is corruption, in every range-coded mode.
  for (CodecPrecision precision : {kF32, kF64}) {
    const std::vector<GoldenFrame> seq = golden_sequence(precision);
    const FieldView v2 = view(seq[0].values, seq[0].nx, seq[0].ny);
    const FieldView v1 = view(seq[1].values, seq[1].nx, seq[1].ny);
    const FieldView cur = view(seq[2].values, seq[2].nx, seq[2].ny);
    const CompressedFrame frames[] = {encode_frame(cur, nullptr, nullptr, precision),
                                      encode_frame(cur, &v1, nullptr, precision),
                                      encode_frame(cur, &v1, &v2, precision)};
    EXPECT_EQ(frames[0].mode, CompressedFrame::Mode::kIntra);
    EXPECT_EQ(frames[1].mode, CompressedFrame::Mode::kDelta);
    EXPECT_EQ(frames[2].mode, CompressedFrame::Mode::kDelta2);
    for (const CompressedFrame& frame : frames) {
      EXPECT_NO_THROW(decode_frame(frame, &v1, &v2));
      CompressedFrame padded = frame;
      padded.payload.push_back(0);
      EXPECT_THROW(decode_frame(padded, &v1, &v2), std::invalid_argument)
          << "mode " << static_cast<int>(frame.mode);
    }
  }
}

// ---- Per-field fan-out ----
//
// FrameFieldCodec runs each field slot on its own pool lane. The payloads,
// sizes and ratios must not depend on the pool, and a copied codec (the
// snapshot path) must resume exactly where the original would.

// 40 frames of three slots (two parent-sized, one nest-sized, as a frame's
// fields), with a resolution change of the first two slots at frame 17.
struct FanoutRun {
  std::vector<std::size_t> encoded_bytes;
  std::vector<double> cumulative_ratio;
  std::uint64_t payload_hash = kFnvOffset;
};

std::vector<std::vector<GoldenFrame>> fanout_frames() {
  GoldenStream a(24, 16, 5), b(24, 16, 6), nest(11, 11, 7);
  GoldenStream a2(30, 20, 8), b2(30, 20, 9);
  std::vector<std::vector<GoldenFrame>> frames;
  for (int t = 0; t < 40; ++t) {
    const bool fine = t >= 17;
    frames.push_back({fine ? a2.drift() : a.drift(),
                      fine ? b2.jump() : b.jump(), nest.drift()});
  }
  return frames;
}

void encode_frames(FrameFieldCodec& codec, ThreadPool& pool,
                   const std::vector<std::vector<GoldenFrame>>& frames,
                   std::size_t begin, std::size_t end, FanoutRun& run) {
  for (std::size_t t = begin; t < end; ++t) {
    std::vector<FieldView> fields;
    for (const GoldenFrame& f : frames[t]) {
      fields.push_back(view(f.values, f.nx, f.ny));
    }
    std::vector<CompressedFrame> encoded;
    const CodecFrameReport report =
        codec.encode_frame_fields(fields, &pool, &encoded);
    EXPECT_EQ(report.fields, 3);
    ASSERT_EQ(encoded.size(), fields.size());
    std::size_t bytes = 0;
    for (const CompressedFrame& f : encoded) {
      bytes += f.encoded_bytes();
      fnv1a(run.payload_hash, f.payload.data(), f.payload.size());
    }
    EXPECT_EQ(report.encoded_bytes, bytes);
    run.encoded_bytes.push_back(report.encoded_bytes);
    run.cumulative_ratio.push_back(codec.cumulative_ratio());
  }
}

TEST(CodecFanout, PayloadsAndRatiosDoNotDependOnThePool) {
  const auto frames = fanout_frames();
  ThreadPool serial(0);
  ThreadPool wide(3);
  FanoutRun a, b;
  FrameFieldCodec ca(CodecOptions{true, kF32});
  FrameFieldCodec cb(CodecOptions{true, kF32});
  encode_frames(ca, serial, frames, 0, frames.size(), a);
  encode_frames(cb, wide, frames, 0, frames.size(), b);
  EXPECT_EQ(a.encoded_bytes, b.encoded_bytes);
  EXPECT_EQ(a.cumulative_ratio, b.cumulative_ratio);
  EXPECT_EQ(a.payload_hash, b.payload_hash);
  EXPECT_GT(ca.cumulative_ratio(), 1.0);
}

TEST(CodecFanout, CopiedCodecResumesIdentically) {
  const auto frames = fanout_frames();
  ThreadPool serial(0);
  ThreadPool wide(3);
  FanoutRun whole, split;
  FrameFieldCodec straight(CodecOptions{true, kF64});
  encode_frames(straight, serial, frames, 0, frames.size(), whole);

  // Snapshot mid-sequence (just before the resolution change), then
  // resume the copy on the other pool.
  FrameFieldCodec first(CodecOptions{true, kF64});
  encode_frames(first, wide, frames, 0, 16, split);
  FrameFieldCodec resumed = first;
  encode_frames(resumed, wide, frames, 16, frames.size(), split);
  EXPECT_EQ(whole.encoded_bytes, split.encoded_bytes);
  EXPECT_EQ(whole.cumulative_ratio, split.cumulative_ratio);
  EXPECT_EQ(whole.payload_hash, split.payload_hash);
  EXPECT_EQ(resumed.total_raw_bytes(), straight.total_raw_bytes());
}

TEST(CodecFanout, LaneFailureIsRethrownOnTheCaller) {
  // A slot that throws on a pool lane must surface as the same exception
  // on the calling thread, not terminate the process.
  ThreadPool wide(3);
  FrameFieldCodec codec(CodecOptions{true, kF32});
  const std::vector<double> good = ar1_field(16, 16, 3);
  const std::vector<FieldView> fields = {view(good, 16, 16),
                                         FieldView{nullptr, 16, 16},
                                         view(good, 16, 16)};
  EXPECT_THROW(codec.encode_frame_fields(fields, &wide), std::invalid_argument);
}

TEST(CodecGolden, Float32PayloadBytesArePinned) {
  const GoldenDigest d = encode_golden(kF32);
  EXPECT_EQ(d.modes, "IDTTDDIRIDTTDD");
  EXPECT_EQ(d.hash, 18107403636333372271ull);
}

TEST(CodecGolden, Float64PayloadBytesArePinned) {
  const GoldenDigest d = encode_golden(kF64);
  EXPECT_EQ(d.modes, "IDTTDDIRIDTTDD");
  EXPECT_EQ(d.hash, 874226914895838326ull);
}

// ---- Error handling ----

TEST(Codec, DecodeRejectsDeltaWithoutPrev) {
  const std::vector<double> prev = ar1_field(16, 16, 6);
  std::vector<double> cur = prev;
  for (double& x : cur) x += 1e-9;
  const FieldView pv = view(prev, 16, 16);
  CompressedFrame frame = encode_frame(view(cur, 16, 16), &pv, nullptr, kF64);
  ASSERT_EQ(frame.mode, CompressedFrame::Mode::kDelta);
  EXPECT_THROW(decode_frame(frame, nullptr), std::invalid_argument);
  const FieldView wrong = view(prev, 8, 32);
  EXPECT_THROW(decode_frame(frame, &wrong), std::invalid_argument);
}

TEST(Codec, DecodeRejectsCorruptPayload) {
  const std::vector<double> cur = ar1_field(16, 16, 8);
  CompressedFrame frame = encode_frame(view(cur, 16, 16), nullptr);
  CompressedFrame truncated = frame;
  truncated.payload.resize(truncated.payload.size() / 2);
  EXPECT_THROW(decode_frame(truncated, nullptr), std::invalid_argument);

  CompressedFrame bad_magic = frame;
  bad_magic.payload[0] = 'X';
  EXPECT_THROW(decode_frame(bad_magic, nullptr), std::invalid_argument);

  CompressedFrame empty;
  EXPECT_THROW(decode_frame(empty, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace adaptviz
