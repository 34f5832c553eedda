#include "dataio/codec.hpp"

#include <chrono>
#include <cstring>
#include <stdexcept>

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

struct ByteModel {
  std::uint16_t freq[256];
  std::uint32_t total;

  ByteModel() : total(256) {
    for (auto& f : freq) f = 1;
  }

  void update(int sym) {
    freq[sym] = static_cast<std::uint16_t>(freq[sym] + kFreqIncrement);
    total += kFreqIncrement;
    if (total > kMaxTotal) {
      total = 0;
      for (auto& f : freq) {
        f = static_cast<std::uint16_t>((f + 1) >> 1);
        total += f;
      }
    }
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
    range_ /= model.total;
    std::uint32_t target = static_cast<std::uint32_t>(code_ / range_);
    if (target >= model.total) target = model.total - 1;
    std::uint32_t cum = 0;
    int sym = 0;
    while (cum + model.freq[sym] <= target) cum += model.freq[sym++];
    code_ -= static_cast<std::uint64_t>(cum) * range_;
    range_ *= model.freq[sym];
    while (range_ < kTopValue) {
      code_ = (code_ << 8) | read_byte();
      range_ <<= 8;
    }
    return sym;
  }

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
template <typename UInt>
void rc_encode_planes(const std::vector<UInt>& resid,
                      std::vector<std::uint8_t>& out) {
  RangeEncoder enc(out);
  for (std::size_t p = 0; p < sizeof(UInt); ++p) {
    ByteModel model;
    for (const UInt r : resid) {
      const int sym = static_cast<int>((r >> (8 * p)) & 0xff);
      std::uint32_t cum = 0;
      for (int s = 0; s < sym; ++s) cum += model.freq[s];
      enc.encode(cum, model.freq[sym], model.total);
      model.update(sym);
    }
  }
  enc.flush();
}

template <typename UInt>
void rc_decode_planes(const std::vector<std::uint8_t>& in, std::size_t pos,
                      std::size_t n, std::vector<UInt>& resid) {
  resid.assign(n, 0);
  RangeDecoder dec(in, pos);
  for (std::size_t p = 0; p < sizeof(UInt); ++p) {
    ByteModel model;
    for (std::size_t k = 0; k < n; ++k) {
      const int sym = dec.decode(model);
      resid[k] |= static_cast<UInt>(sym) << (8 * p);
      model.update(sym);
    }
  }
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

std::vector<std::uint8_t> make_header(CompressedFrame::Mode mode,
                                      CodecPrecision precision,
                                      std::uint32_t nx, std::uint32_t ny) {
  std::vector<std::uint8_t> out(kMagic, kMagic + 4);
  out.push_back(static_cast<std::uint8_t>(mode));
  out.push_back(static_cast<std::uint8_t>(precision));
  put_u32(out, nx);
  put_u32(out, ny);
  return out;
}

// Narrow the double view to the coded value type (identity for double),
// then map to the order-preserving integer lattice.
template <typename Float>
std::vector<typename BitsOf<Float>::type> ordered(const FieldView& v) {
  std::vector<typename BitsOf<Float>::type> out(v.count());
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = order_map(fbits(static_cast<Float>(v.data[k])));
  }
  return out;
}

bool same_shape(const FieldView* p, const FieldView& cur) {
  return p != nullptr && p->data != nullptr && p->nx == cur.nx &&
         p->ny == cur.ny;
}

template <typename Float>
CompressedFrame encode_at(FieldView cur, const FieldView* prev,
                          const FieldView* prev2, CodecPrecision precision) {
  using UInt = typename BitsOf<Float>::type;
  const std::size_t n = cur.count();
  CompressedFrame frame;
  frame.nx = static_cast<std::uint32_t>(cur.nx);
  frame.ny = static_cast<std::uint32_t>(cur.ny);
  frame.precision = precision;

  const std::vector<UInt> oc = ordered<Float>(cur);

  // Candidate 1: spatial (intra) prediction — always available.
  std::vector<UInt> resid(n);
  for (std::size_t j = 0; j < cur.ny; ++j) {
    for (std::size_t i = 0; i < cur.nx; ++i) {
      const std::size_t k = j * cur.nx + i;
      resid[k] = zigzag(
          static_cast<UInt>(oc[k] - lorenzo_predict(oc.data(), cur.nx, i, j)));
    }
  }
  CompressedFrame::Mode best_mode = CompressedFrame::Mode::kIntra;
  std::vector<std::uint8_t> best =
      make_header(best_mode, precision, frame.nx, frame.ny);
  rc_encode_planes(resid, best);

  // Candidate 2: temporal delta, when a same-shape previous frame exists.
  const bool have_prev = same_shape(prev, cur);
  if (have_prev) {
    const std::vector<UInt> o1 = ordered<Float>(*prev);
    for (std::size_t k = 0; k < n; ++k) {
      resid[k] = zigzag(static_cast<UInt>(oc[k] - o1[k]));
    }
    std::vector<std::uint8_t> delta = make_header(
        CompressedFrame::Mode::kDelta, precision, frame.nx, frame.ny);
    rc_encode_planes(resid, delta);
    if (delta.size() < best.size()) {
      best = std::move(delta);
      best_mode = CompressedFrame::Mode::kDelta;
    }

    // Candidate 3: second-order temporal extrapolation (2*prev - prev2).
    // Fields advect smoothly between frames, so the linear-in-time
    // prediction cancels most of the first difference as well.
    if (same_shape(prev2, cur)) {
      const std::vector<UInt> o2 = ordered<Float>(*prev2);
      for (std::size_t k = 0; k < n; ++k) {
        const UInt pred = static_cast<UInt>(2 * o1[k] - o2[k]);
        resid[k] = zigzag(static_cast<UInt>(oc[k] - pred));
      }
      std::vector<std::uint8_t> delta2 = make_header(
          CompressedFrame::Mode::kDelta2, precision, frame.nx, frame.ny);
      rc_encode_planes(resid, delta2);
      if (delta2.size() < best.size()) {
        best = std::move(delta2);
        best_mode = CompressedFrame::Mode::kDelta2;
      }
    }
  }

  // Escape hatch: incompressible input is stored verbatim, bounding the
  // worst case at raw size + header.
  if (best.size() > n * sizeof(Float) + kHeaderBytes) {
    best_mode = CompressedFrame::Mode::kRaw;
    best = make_header(best_mode, precision, frame.nx, frame.ny);
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

template <typename Float>
std::vector<double> decode_at(const CompressedFrame& frame,
                              const FieldView* prev, const FieldView* prev2,
                              std::uint32_t nx, std::uint32_t ny) {
  using UInt = typename BitsOf<Float>::type;
  const std::vector<std::uint8_t>& in = frame.payload;
  const std::size_t n = static_cast<std::size_t>(nx) * ny;
  std::vector<UInt> oc(n);

  switch (frame.mode) {
    case CompressedFrame::Mode::kRaw: {
      if (in.size() != kHeaderBytes + n * sizeof(Float)) {
        throw std::invalid_argument("decode_frame: bad raw body size");
      }
      std::vector<double> out(n);
      for (std::size_t k = 0; k < n; ++k) {
        UInt b = 0;
        for (std::size_t p = 0; p < sizeof(Float); ++p) {
          b |= static_cast<UInt>(in[kHeaderBytes + k * sizeof(Float) + p])
               << (8 * p);
        }
        out[k] = static_cast<double>(bits_to_float<Float>(b));
      }
      return out;
    }
    case CompressedFrame::Mode::kIntra: {
      std::vector<UInt> resid;
      rc_decode_planes(in, kHeaderBytes, n, resid);
      for (std::size_t j = 0; j < ny; ++j) {
        for (std::size_t i = 0; i < nx; ++i) {
          const std::size_t k = j * nx + i;
          oc[k] = static_cast<UInt>(unzigzag(resid[k]) +
                                    lorenzo_predict(oc.data(), nx, i, j));
        }
      }
      break;
    }
    case CompressedFrame::Mode::kDelta: {
      if (prev == nullptr || prev->data == nullptr || prev->nx != nx ||
          prev->ny != ny) {
        throw std::invalid_argument(
            "decode_frame: delta frame needs the matching previous frame");
      }
      const std::vector<UInt> o1 = ordered<Float>(*prev);
      std::vector<UInt> resid;
      rc_decode_planes(in, kHeaderBytes, n, resid);
      for (std::size_t k = 0; k < n; ++k) {
        oc[k] = static_cast<UInt>(unzigzag(resid[k]) + o1[k]);
      }
      break;
    }
    case CompressedFrame::Mode::kDelta2: {
      if (prev == nullptr || prev->data == nullptr || prev->nx != nx ||
          prev->ny != ny || prev2 == nullptr || prev2->data == nullptr ||
          prev2->nx != nx || prev2->ny != ny) {
        throw std::invalid_argument(
            "decode_frame: delta2 frame needs the two previous frames");
      }
      const std::vector<UInt> o1 = ordered<Float>(*prev);
      const std::vector<UInt> o2 = ordered<Float>(*prev2);
      std::vector<UInt> resid;
      rc_decode_planes(in, kHeaderBytes, n, resid);
      for (std::size_t k = 0; k < n; ++k) {
        const UInt pred = static_cast<UInt>(2 * o1[k] - o2[k]);
        oc[k] = static_cast<UInt>(unzigzag(resid[k]) + pred);
      }
      break;
    }
    default:
      throw std::invalid_argument("decode_frame: unknown mode");
  }

  std::vector<double> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = static_cast<double>(bits_to_float<Float>(order_unmap(oc[k])));
  }
  return out;
}

}  // namespace

CompressedFrame encode_frame(FieldView cur, const FieldView* prev,
                             const FieldView* prev2,
                             CodecPrecision precision) {
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
    frame.payload = make_header(frame.mode, precision, frame.nx, frame.ny);
    return frame;
  }
  return precision == CodecPrecision::kFloat32
             ? encode_at<float>(cur, prev, prev2, precision)
             : encode_at<double>(cur, prev, prev2, precision);
}

std::vector<double> decode_frame(const CompressedFrame& frame,
                                 const FieldView* prev,
                                 const FieldView* prev2) {
  const std::vector<std::uint8_t>& in = frame.payload;
  if (in.size() < kHeaderBytes || std::memcmp(in.data(), kMagic, 4) != 0) {
    throw std::invalid_argument("decode_frame: bad header");
  }
  const auto mode = static_cast<CompressedFrame::Mode>(in[4]);
  const auto precision = static_cast<CodecPrecision>(in[5]);
  const std::uint32_t nx = get_u32(in, 6);
  const std::uint32_t ny = get_u32(in, 10);
  if (mode != frame.mode || precision != frame.precision ||
      nx != frame.nx || ny != frame.ny) {
    throw std::invalid_argument("decode_frame: header/frame mismatch");
  }
  if (precision != CodecPrecision::kFloat32 &&
      precision != CodecPrecision::kFloat64) {
    throw std::invalid_argument("decode_frame: unknown precision");
  }
  const std::size_t n = static_cast<std::size_t>(nx) * ny;
  if (n == 0) {
    if (in.size() != kHeaderBytes) {
      throw std::invalid_argument("decode_frame: empty frame with body");
    }
    return {};
  }
  return precision == CodecPrecision::kFloat32
             ? decode_at<float>(frame, prev, prev2, nx, ny)
             : decode_at<double>(frame, prev, prev2, nx, ny);
}

// ---- FrameFieldCodec ----

namespace {

// Bitwise comparison at the coded precision: NaNs must survive, so the
// doubles are compared through their narrowed bit patterns.
bool bits_equal(const std::vector<double>& a, const std::vector<double>& b,
                CodecPrecision precision) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (precision == CodecPrecision::kFloat32) {
      if (fbits(static_cast<float>(a[k])) !=
          fbits(static_cast<float>(b[k]))) {
        return false;
      }
    } else {
      if (fbits(a[k]) != fbits(b[k])) return false;
    }
  }
  return true;
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
    const std::vector<FieldView>& fields) {
  CodecFrameReport report;
  if (fields.size() > slots_.size()) slots_.resize(fields.size());

  for (std::size_t s = 0; s < fields.size(); ++s) {
    Slot& slot = slots_[s];
    const FieldView cur = fields[s];
    const FieldView prev{slot.prev.data(), slot.prev_nx, slot.prev_ny};
    const FieldView prev2{slot.prev2.data(), slot.prev2_nx, slot.prev2_ny};

    const auto t0 = std::chrono::steady_clock::now();
    const CompressedFrame enc =
        encode_frame(cur, slot.prev.empty() ? nullptr : &prev,
                     slot.prev2.empty() ? nullptr : &prev2,
                     options_.precision);
    const auto t1 = std::chrono::steady_clock::now();
    report.raw_bytes += enc.raw_bytes();
    report.encoded_bytes += enc.encoded_bytes();
    report.encode_seconds += std::chrono::duration<double>(t1 - t0).count();
    ++report.fields;

    if (options_.verify_roundtrip) {
      const auto d0 = std::chrono::steady_clock::now();
      const std::vector<double> back =
          decode_frame(enc, slot.prev.empty() ? nullptr : &prev,
                       slot.prev2.empty() ? nullptr : &prev2);
      const auto d1 = std::chrono::steady_clock::now();
      report.decode_seconds +=
          std::chrono::duration<double>(d1 - d0).count();
      std::vector<double> want(cur.data, cur.data + cur.count());
      if (!bits_equal(back, want, options_.precision)) {
        throw std::logic_error(
            "FrameFieldCodec: decoded frame does not reconstruct the "
            "encoded values bit-for-bit");
      }
    }

    slot.prev2 = std::move(slot.prev);
    slot.prev2_nx = slot.prev_nx;
    slot.prev2_ny = slot.prev_ny;
    slot.prev.assign(cur.data, cur.data + cur.count());
    slot.prev_nx = cur.nx;
    slot.prev_ny = cur.ny;
  }

  total_raw_ += report.raw_bytes;
  total_encoded_ += report.encoded_bytes;
  last_ratio_ = report.ratio();
  return report;
}

}  // namespace adaptviz
