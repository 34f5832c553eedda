#include "dataio/codec.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"

namespace adaptviz {
namespace {

// Payload layout: 4-byte magic, 1-byte mode, 1-byte precision, two
// little-endian u32 dims, then the mode-specific body (raw values, or one
// range-coded stream covering every residual byte plane).
constexpr std::uint8_t kMagic[4] = {'A', 'F', 'C', '1'};
constexpr std::size_t kHeaderBytes = 4 + 1 + 1 + 4 + 4;

template <typename Float>
struct BitsOf;
template <>
struct BitsOf<float> {
  using type = std::uint32_t;
};
template <>
struct BitsOf<double> {
  using type = std::uint64_t;
};

template <typename Float>
typename BitsOf<Float>::type fbits(Float v) {
  typename BitsOf<Float>::type b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

template <typename Float>
Float bits_to_float(typename BitsOf<Float>::type b) {
  Float v;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

// Maps IEEE bit patterns to unsigned integers that preserve value order
// (negative floats descend as their bit patterns ascend), so subtraction
// of nearby values yields small residuals. Self-inverse modulo the branch.
template <typename UInt>
UInt order_map(UInt b) {
  constexpr UInt msb = UInt(1) << (8 * sizeof(UInt) - 1);
  return (b & msb) ? ~b : (b | msb);
}

template <typename UInt>
UInt order_unmap(UInt x) {
  constexpr UInt msb = UInt(1) << (8 * sizeof(UInt) - 1);
  return (x & msb) ? (x & ~msb) : ~x;
}

// Zigzag: small signed residuals (two's complement) to small unsigned
// codes, so zero-centered residuals concentrate in the low byte planes.
template <typename UInt>
UInt zigzag(UInt d) {
  return (d << 1) ^ (UInt(0) - (d >> (8 * sizeof(UInt) - 1)));
}

template <typename UInt>
UInt unzigzag(UInt z) {
  return (z >> 1) ^ (UInt(0) - (z & 1));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int k = 0; k < 4; ++k) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
  }
}

std::uint32_t get_u32(const std::vector<std::uint8_t>& in, std::size_t pos) {
  std::uint32_t v = 0;
  for (int k = 0; k < 4; ++k) {
    v |= static_cast<std::uint32_t>(in[pos + k]) << (8 * k);
  }
  return v;
}

// ---- Entropy stage: adaptive order-0 range coder ----
//
// A carry-propagating (LZMA-style) byte range coder with one adaptive
// 256-symbol frequency model per byte plane. Unlike zero-run RLE this
// approaches the per-plane order-0 entropy: near-constant exponent planes
// cost fractions of a bit per value, fully random low-mantissa planes cost
// ~8 bits, and nothing in between is wasted on run-token framing.

constexpr std::uint32_t kTopValue = 1u << 24;
constexpr std::uint32_t kFreqIncrement = 32;
constexpr std::uint32_t kMaxTotal = 1u << 16;

// Frequencies plus the cumulative frequency at every 16-symbol group
// boundary: gcum[g] sums freq[0 .. 16g), so gcum[16] is the total. The
// encoder then gets a symbol's cumulative frequency from its group's entry
// plus at most 15 in-group adds, and the decoder finds a symbol by a group
// search and an in-group scan, where a plain frequency table needs a scan
// of up to 255 entries per byte (low-mantissa planes are near-uniform, so
// that scan averaged ~128 adds). The cum/freq/total handed to the coder
// are the same numbers either way, so the coded bytes are too.
struct ByteModel {
  std::uint16_t freq[256];
  std::uint32_t gcum[17];

  ByteModel() {
    for (auto& f : freq) f = 1;
    for (std::uint32_t g = 0; g <= 16; ++g) gcum[g] = 16 * g;
  }

  [[nodiscard]] std::uint32_t total() const { return gcum[16]; }

  [[nodiscard]] std::uint32_t cum(int sym) const {
    std::uint32_t c = gcum[sym >> 4];
    for (int s = sym & ~15; s < sym; ++s) c += freq[s];
    return c;
  }

  void update(int sym) {
    freq[sym] = static_cast<std::uint16_t>(freq[sym] + kFreqIncrement);
    // Fixed trip count and no branch, so the compiler vectorizes it.
    const int group = sym >> 4;
    for (int g = 1; g <= 16; ++g) {
      gcum[g] += g > group ? kFreqIncrement : 0;
    }
    if (gcum[16] > kMaxTotal) rescale();
  }

  void rescale() {
    std::uint32_t c = 0;
    for (int g = 0; g < 16; ++g) {
      gcum[g] = c;
      for (int s = 16 * g; s < 16 * g + 16; ++s) {
        freq[s] = static_cast<std::uint16_t>((freq[s] + 1) >> 1);
        c += freq[s];
      }
    }
    gcum[16] = c;
  }
};

class RangeEncoder {
 public:
  explicit RangeEncoder(std::vector<std::uint8_t>& out) : out_(out) {}

  void encode(std::uint32_t cum, std::uint32_t freq, std::uint32_t total) {
    range_ /= total;
    low_ += static_cast<std::uint64_t>(cum) * range_;
    range_ *= freq;
    while (range_ < kTopValue) {
      range_ <<= 8;
      shift_low();
    }
  }

  // Always leaves exactly one byte pending (the last shift_low sees a
  // zero `low`), so the decoder's reads end exactly at the stream's end.
  void flush() {
    for (int k = 0; k < 5; ++k) shift_low();
  }

 private:
  void shift_low() {
    if (static_cast<std::uint32_t>(low_) < 0xff000000u || (low_ >> 32) != 0) {
      std::uint8_t carry = static_cast<std::uint8_t>(low_ >> 32);
      do {
        out_.push_back(static_cast<std::uint8_t>(cache_ + carry));
        cache_ = 0xff;
      } while (--cache_size_ != 0);
      cache_ = static_cast<std::uint8_t>(low_ >> 24);
    }
    ++cache_size_;
    low_ = static_cast<std::uint32_t>(low_) << 8;
  }

  std::vector<std::uint8_t>& out_;
  std::uint64_t low_ = 0;
  std::uint32_t range_ = 0xffffffffu;
  std::uint8_t cache_ = 0;
  std::uint64_t cache_size_ = 1;
};

class RangeDecoder {
 public:
  RangeDecoder(const std::vector<std::uint8_t>& in, std::size_t pos)
      : in_(in), pos_(pos) {
    for (int k = 0; k < 5; ++k) code_ = (code_ << 8) | read_byte();
  }

  int decode(ByteModel& model) {
    const std::uint32_t total = model.total();
    range_ /= total;
    std::uint32_t target = static_cast<std::uint32_t>(code_ / range_);
    if (target >= total) target = total - 1;
    // gcum[16] is the total, above `target`, so the group search stops.
    int group = 0;
    while (model.gcum[group + 1] <= target) ++group;
    int sym = group << 4;
    std::uint32_t cum = model.gcum[group];
    while (cum + model.freq[sym] <= target) cum += model.freq[sym++];
    code_ -= static_cast<std::uint64_t>(cum) * range_;
    range_ *= model.freq[sym];
    while (range_ < kTopValue) {
      code_ = (code_ << 8) | read_byte();
      range_ <<= 8;
    }
    return sym;
  }

  /// Offset one past the last byte read.
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  std::uint8_t read_byte() {
    if (pos_ >= in_.size()) {
      throw std::invalid_argument("codec: truncated range-coded stream");
    }
    return in_[pos_++];
  }

  const std::vector<std::uint8_t>& in_;
  std::size_t pos_;
  std::uint64_t code_ = 0;
  std::uint32_t range_ = 0xffffffffu;
};

// Codes the zigzagged residuals plane-major (all byte 0s, then byte 1s,
// ...), one adaptive model per plane; mirrors rc_decode_planes exactly.
// Returns false, with `out` partly written, as soon as `out` grows past
// `limit` bytes: output only grows, so that stream cannot end within it.
template <typename UInt>
bool rc_encode_planes(const std::vector<UInt>& resid,
                      std::vector<std::uint8_t>& out, std::size_t limit) {
  RangeEncoder enc(out);
  for (std::size_t p = 0; p < sizeof(UInt); ++p) {
    ByteModel model;
    for (const UInt r : resid) {
      const int sym = static_cast<int>((r >> (8 * p)) & 0xff);
      enc.encode(model.cum(sym), model.freq[sym], model.total());
      model.update(sym);
      if (out.size() > limit) return false;
    }
  }
  enc.flush();
  return out.size() <= limit;
}

// Decodes into `resid` and returns the offset one past the stream.
template <typename UInt>
std::size_t rc_decode_planes(const std::vector<std::uint8_t>& in,
                             std::size_t pos, std::vector<UInt>& resid) {
  std::fill(resid.begin(), resid.end(), UInt(0));
  RangeDecoder dec(in, pos);
  for (std::size_t p = 0; p < sizeof(UInt); ++p) {
    ByteModel model;
    for (UInt& r : resid) {
      const int sym = dec.decode(model);
      r |= static_cast<UInt>(sym) << (8 * p);
      model.update(sym);
    }
  }
  return dec.position();
}

// Lorenzo predictor on the order-mapped lattice, from the west, north, and
// north-west neighbors already known to both sides. Wrapping unsigned
// arithmetic keeps the transform exactly invertible.
template <typename UInt>
UInt lorenzo_predict(const UInt* o, std::size_t nx, std::size_t i,
                     std::size_t j) {
  const std::size_t k = j * nx + i;
  if (i > 0 && j > 0) return o[k - 1] + o[k - nx] - o[k - nx - 1];
  if (i > 0) return o[k - 1];
  if (j > 0) return o[k - nx];
  return UInt(0);
}

// Clears `out` and writes the payload header.
void put_header(std::vector<std::uint8_t>& out, CompressedFrame::Mode mode,
                CodecPrecision precision, std::uint32_t nx, std::uint32_t ny) {
  out.assign(kMagic, kMagic + 4);
  out.push_back(static_cast<std::uint8_t>(mode));
  out.push_back(static_cast<std::uint8_t>(precision));
  put_u32(out, nx);
  put_u32(out, ny);
}

// Narrow a double to the coded value type (identity for double), then map
// it to the order-preserving integer lattice.
template <typename Float>
typename BitsOf<Float>::type ordered_at(const FieldView& v, std::size_t k) {
  return order_map(fbits(static_cast<Float>(v.data[k])));
}

bool same_shape(const FieldView* p, const FieldView& cur) {
  return p != nullptr && p->data != nullptr && p->nx == cur.nx &&
         p->ny == cur.ny;
}

// Working buffers of one field's encode and verify decode. FrameFieldCodec
// sizes them on the calling thread so that its pool lanes never allocate:
// a thread's first allocation gives it a malloc arena of its own, which
// then stays resident for the life of the process.
struct FieldScratch {
  std::vector<std::uint8_t> best, trial;  // the winning and the trial stream
  std::vector<std::uint32_t> words32;     // residuals, then decoded bits
  std::vector<std::uint64_t> words64;

  template <typename UInt>
  std::vector<UInt>& words() {
    if constexpr (sizeof(UInt) == 4) {
      return words32;
    } else {
      return words64;
    }
  }

  void reserve(std::size_t n, CodecPrecision precision) {
    const std::size_t width = precision == CodecPrecision::kFloat32 ? 4 : 8;
    // A trial stops a few bytes past its limit, at most the raw bound;
    // the slack covers them.
    best.reserve(kHeaderBytes + n * width + 64);
    trial.reserve(kHeaderBytes + n * width + 64);
    if (width == 4) {
      words32.reserve(n);
    } else {
      words64.reserve(n);
    }
  }
};

template <typename Float>
CompressedFrame encode_at(FieldView cur, const FieldView* prev,
                          const FieldView* prev2, CodecPrecision precision,
                          FieldScratch& scratch) {
  using UInt = typename BitsOf<Float>::type;
  using Mode = CompressedFrame::Mode;
  const std::size_t n = cur.count();
  CompressedFrame frame;
  frame.nx = static_cast<std::uint32_t>(cur.nx);
  frame.ny = static_cast<std::uint32_t>(cur.ny);
  frame.precision = precision;

  // Every candidate is range-coded and the smallest wins; ties go to the
  // earliest of intra, delta, delta2. The candidates are coded likely
  // winner first (delta2, delta, intra) and a later one replaces the best
  // when it is no larger, which picks that same winner. So each coding
  // can stop as soon as its output passes the best size so far: it can no
  // longer win. Before any candidate completes the bound is the raw
  // escape's size, since a stream larger than that is never kept.
  std::vector<UInt>& resid = scratch.words<UInt>();
  resid.resize(n);
  std::vector<std::uint8_t>& best = scratch.best;
  std::vector<std::uint8_t>& trial = scratch.trial;
  Mode best_mode = Mode::kRaw;
  const auto code_candidate = [&](Mode mode) {
    put_header(trial, mode, precision, frame.nx, frame.ny);
    const std::size_t limit = best_mode == Mode::kRaw
                                  ? n * sizeof(Float) + kHeaderBytes
                                  : best.size();
    if (rc_encode_planes(resid, trial, limit)) {
      best.swap(trial);
      best_mode = mode;
    }
  };

  const bool have_prev = same_shape(prev, cur);
  // Second-order temporal extrapolation (2*prev - prev2). Fields advect
  // smoothly between frames, so the linear-in-time prediction cancels
  // most of the first difference as well.
  if (have_prev && same_shape(prev2, cur)) {
    for (std::size_t k = 0; k < n; ++k) {
      const UInt pred = static_cast<UInt>(2 * ordered_at<Float>(*prev, k) -
                                          ordered_at<Float>(*prev2, k));
      resid[k] = zigzag(static_cast<UInt>(ordered_at<Float>(cur, k) - pred));
    }
    code_candidate(Mode::kDelta2);
  }
  // Temporal delta against a same-shape previous frame.
  if (have_prev) {
    for (std::size_t k = 0; k < n; ++k) {
      resid[k] = zigzag(static_cast<UInt>(ordered_at<Float>(cur, k) -
                                          ordered_at<Float>(*prev, k)));
    }
    code_candidate(Mode::kDelta);
  }
  // Spatial (intra) prediction: always available. Computed in place,
  // last point first, so each prediction still reads ordered values.
  for (std::size_t k = 0; k < n; ++k) resid[k] = ordered_at<Float>(cur, k);
  for (std::size_t j = cur.ny; j-- > 0;) {
    for (std::size_t i = cur.nx; i-- > 0;) {
      const std::size_t k = j * cur.nx + i;
      resid[k] = zigzag(static_cast<UInt>(
          resid[k] - lorenzo_predict(resid.data(), cur.nx, i, j)));
    }
  }
  code_candidate(Mode::kIntra);

  // Escape hatch: incompressible input is stored verbatim, bounding the
  // worst case at raw size + header.
  if (best_mode == Mode::kRaw) {
    put_header(best, best_mode, precision, frame.nx, frame.ny);
    for (std::size_t k = 0; k < n; ++k) {
      const UInt b = fbits(static_cast<Float>(cur.data[k]));
      for (std::size_t p = 0; p < sizeof(Float); ++p) {
        best.push_back(static_cast<std::uint8_t>(b >> (8 * p)));
      }
    }
  }

  frame.mode = best_mode;
  frame.payload = std::move(best);
  return frame;
}

// Reconstructs the coded values as IEEE bit patterns at the coded width.
// The header must already have passed checked_count() with a nonzero count.
template <typename Float>
void decode_bits(const CompressedFrame& frame, const FieldView* prev,
                 const FieldView* prev2,
                 std::vector<typename BitsOf<Float>::type>& bits) {
  using UInt = typename BitsOf<Float>::type;
  using Mode = CompressedFrame::Mode;
  const std::vector<std::uint8_t>& in = frame.payload;
  const std::size_t nx = frame.nx;
  const std::size_t n = nx * frame.ny;
  const FieldView shape{nullptr, nx, frame.ny};
  bits.resize(n);

  if (frame.mode == Mode::kRaw) {
    if (in.size() != kHeaderBytes + n * sizeof(Float)) {
      throw std::invalid_argument("decode_frame: bad raw body size");
    }
    for (std::size_t k = 0; k < n; ++k) {
      UInt b = 0;
      for (std::size_t p = 0; p < sizeof(Float); ++p) {
        b |= static_cast<UInt>(in[kHeaderBytes + k * sizeof(Float) + p])
             << (8 * p);
      }
      bits[k] = b;
    }
    return;
  }
  if (frame.mode != Mode::kIntra && frame.mode != Mode::kDelta &&
      frame.mode != Mode::kDelta2) {
    throw std::invalid_argument("decode_frame: unknown mode");
  }
  if (frame.mode == Mode::kDelta && !same_shape(prev, shape)) {
    throw std::invalid_argument(
        "decode_frame: delta frame needs the matching previous frame");
  }
  if (frame.mode == Mode::kDelta2 &&
      !(same_shape(prev, shape) && same_shape(prev2, shape))) {
    throw std::invalid_argument(
        "decode_frame: delta2 frame needs the two previous frames");
  }

  // The residuals are decoded into `bits` and turned into the ordered
  // values in place (every predictor reads only earlier, already
  // reconstructed, positions or the history frames), then unmapped.
  if (rc_decode_planes(in, kHeaderBytes, bits) != in.size()) {
    throw std::invalid_argument(
        "decode_frame: trailing bytes after the range-coded body");
  }
  switch (frame.mode) {
    case Mode::kIntra:
      for (std::size_t j = 0; j < frame.ny; ++j) {
        for (std::size_t i = 0; i < nx; ++i) {
          const std::size_t k = j * nx + i;
          bits[k] = static_cast<UInt>(unzigzag(bits[k]) +
                                      lorenzo_predict(bits.data(), nx, i, j));
        }
      }
      break;
    case Mode::kDelta:
      for (std::size_t k = 0; k < n; ++k) {
        bits[k] = static_cast<UInt>(unzigzag(bits[k]) +
                                    ordered_at<Float>(*prev, k));
      }
      break;
    default:  // kDelta2
      for (std::size_t k = 0; k < n; ++k) {
        const UInt pred = static_cast<UInt>(2 * ordered_at<Float>(*prev, k) -
                                            ordered_at<Float>(*prev2, k));
        bits[k] = static_cast<UInt>(unzigzag(bits[k]) + pred);
      }
      break;
  }
  for (UInt& b : bits) b = order_unmap(b);
}

// Checks the payload header against `frame` and returns the value count.
std::size_t checked_count(const CompressedFrame& frame) {
  const std::vector<std::uint8_t>& in = frame.payload;
  if (in.size() < kHeaderBytes || std::memcmp(in.data(), kMagic, 4) != 0) {
    throw std::invalid_argument("decode_frame: bad header");
  }
  const auto mode = static_cast<CompressedFrame::Mode>(in[4]);
  const auto precision = static_cast<CodecPrecision>(in[5]);
  if (mode != frame.mode || precision != frame.precision ||
      get_u32(in, 6) != frame.nx || get_u32(in, 10) != frame.ny) {
    throw std::invalid_argument("decode_frame: header/frame mismatch");
  }
  if (precision != CodecPrecision::kFloat32 &&
      precision != CodecPrecision::kFloat64) {
    throw std::invalid_argument("decode_frame: unknown precision");
  }
  const std::size_t n = static_cast<std::size_t>(frame.nx) * frame.ny;
  if (n == 0 && in.size() != kHeaderBytes) {
    throw std::invalid_argument("decode_frame: empty frame with body");
  }
  return n;
}

template <typename Float>
std::vector<double> decode_at(const CompressedFrame& frame,
                              const FieldView* prev, const FieldView* prev2) {
  std::vector<typename BitsOf<Float>::type> bits;
  decode_bits<Float>(frame, prev, prev2, bits);
  std::vector<double> out(bits.size());
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = static_cast<double>(bits_to_float<Float>(bits[k]));
  }
  return out;
}

CompressedFrame encode_with(FieldView cur, const FieldView* prev,
                            const FieldView* prev2, CodecPrecision precision,
                            FieldScratch& scratch) {
  const std::size_t n = cur.count();
  if (n > 0 && cur.data == nullptr) {
    throw std::invalid_argument("encode_frame: null data with nonzero dims");
  }
  if (n == 0) {
    CompressedFrame frame;
    frame.nx = static_cast<std::uint32_t>(cur.nx);
    frame.ny = static_cast<std::uint32_t>(cur.ny);
    frame.precision = precision;
    frame.mode = CompressedFrame::Mode::kRaw;
    put_header(frame.payload, frame.mode, precision, frame.nx, frame.ny);
    return frame;
  }
  return precision == CodecPrecision::kFloat32
             ? encode_at<float>(cur, prev, prev2, precision, scratch)
             : encode_at<double>(cur, prev, prev2, precision, scratch);
}

}  // namespace

CompressedFrame encode_frame(FieldView cur, const FieldView* prev,
                             const FieldView* prev2,
                             CodecPrecision precision) {
  FieldScratch scratch;
  return encode_with(cur, prev, prev2, precision, scratch);
}

std::vector<double> decode_frame(const CompressedFrame& frame,
                                 const FieldView* prev,
                                 const FieldView* prev2) {
  if (checked_count(frame) == 0) return {};
  return frame.precision == CodecPrecision::kFloat32
             ? decode_at<float>(frame, prev, prev2)
             : decode_at<double>(frame, prev, prev2);
}

// ---- FrameFieldCodec ----

namespace {

// The verify decode: decode_frame's path up to the coded bit patterns,
// compared with `cur` narrowed to the coded width (so NaNs and signed
// zeros count), without widening either side into a copy.
template <typename Float>
bool reconstructs(const CompressedFrame& frame, const FieldView& cur,
                  const FieldView* prev, const FieldView* prev2,
                  FieldScratch& scratch) {
  if (checked_count(frame) != cur.count()) return false;
  if (cur.count() == 0) return true;
  auto& bits = scratch.words<typename BitsOf<Float>::type>();
  decode_bits<Float>(frame, prev, prev2, bits);
  for (std::size_t k = 0; k < bits.size(); ++k) {
    if (bits[k] != fbits(static_cast<Float>(cur.data[k]))) return false;
  }
  return true;
}

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

FrameFieldCodec::FrameFieldCodec(CodecOptions options) : options_(options) {}

double FrameFieldCodec::cumulative_ratio() const {
  return total_raw_ == 0 || total_encoded_ == 0
             ? 1.0
             : static_cast<double>(total_raw_) /
                   static_cast<double>(total_encoded_);
}

CodecFrameReport FrameFieldCodec::encode_frame_fields(
    const std::vector<FieldView>& fields, ThreadPool* pool,
    std::vector<CompressedFrame>* encoded) {
  const auto start = std::chrono::steady_clock::now();
  if (fields.size() > slots_.size()) slots_.resize(fields.size());

  // One lane per field slot. A lane reads only its slot's history and
  // writes only its own result and buffers (sized here, so it never
  // allocates). The pool does not propagate exceptions, so a lane keeps
  // its own for the caller to rethrow.
  struct LaneResult {
    FieldScratch scratch;
    CompressedFrame frame;
    double encode_seconds = 0.0;
    double decode_seconds = 0.0;
    std::exception_ptr error;
  };
  std::vector<LaneResult> lanes(fields.size());
  for (std::size_t s = 0; s < fields.size(); ++s) {
    lanes[s].scratch.reserve(fields[s].count(), options_.precision);
  }
  const auto run_slot = [&](std::size_t s) {
    const Slot& slot = slots_[s];
    LaneResult& lane = lanes[s];
    const FieldView cur = fields[s];
    const FieldView prev{slot.prev.data(), slot.prev_nx, slot.prev_ny};
    const FieldView prev2{slot.prev2.data(), slot.prev2_nx, slot.prev2_ny};
    const FieldView* p1 = slot.prev.empty() ? nullptr : &prev;
    const FieldView* p2 = slot.prev2.empty() ? nullptr : &prev2;

    const auto t0 = std::chrono::steady_clock::now();
    lane.frame = encode_with(cur, p1, p2, options_.precision, lane.scratch);
    const auto t1 = std::chrono::steady_clock::now();
    const bool exact =
        options_.precision == CodecPrecision::kFloat32
            ? reconstructs<float>(lane.frame, cur, p1, p2, lane.scratch)
            : reconstructs<double>(lane.frame, cur, p1, p2, lane.scratch);
    const auto t2 = std::chrono::steady_clock::now();
    lane.encode_seconds = seconds_between(t0, t1);
    lane.decode_seconds = seconds_between(t1, t2);
    if (!exact) {
      throw std::logic_error(
          "FrameFieldCodec: decoded frame does not reconstruct the "
          "encoded values bit-for-bit");
    }
  };

  ThreadPool& lanes_pool = pool != nullptr ? *pool : ThreadPool::shared();
  lanes_pool.parallel_for(
      0, fields.size(), lanes_pool.worker_count(), /*chunk=*/1,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          try {
            run_slot(s);
          } catch (...) {
            lanes[s].error = std::current_exception();
          }
        }
      });

  for (const LaneResult& lane : lanes) {
    if (lane.error) std::rethrow_exception(lane.error);
  }
  CodecFrameReport report;
  for (std::size_t s = 0; s < fields.size(); ++s) {
    LaneResult& lane = lanes[s];
    report.raw_bytes += lane.frame.raw_bytes();
    report.encoded_bytes += lane.frame.encoded_bytes();
    report.encode_seconds += lane.encode_seconds;
    report.decode_seconds += lane.decode_seconds;
    ++report.fields;
    if (encoded != nullptr) encoded->push_back(std::move(lane.frame));

    Slot& slot = slots_[s];
    const FieldView cur = fields[s];
    std::swap(slot.prev2, slot.prev);
    slot.prev2_nx = slot.prev_nx;
    slot.prev2_ny = slot.prev_ny;
    slot.prev.assign(cur.data, cur.data + cur.count());
    slot.prev_nx = cur.nx;
    slot.prev_ny = cur.ny;
  }
  total_raw_ += report.raw_bytes;
  total_encoded_ += report.encoded_bytes;
  last_ratio_ = report.ratio();
  report.wall_seconds =
      seconds_between(start, std::chrono::steady_clock::now());
  return report;
}

}  // namespace adaptviz
