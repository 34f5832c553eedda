// Lossless frame codec for 2-D fields.
//
// The pipeline is the classic floating-point compressor stack (cf. Gorilla,
// fpzip, and ISAAC's compressed frame streaming):
//
//   1. order mapping: each value's IEEE bit pattern is mapped to an
//      order-preserving unsigned integer, so subtracting nearby values
//      yields small residuals instead of XOR bit soup.
//   2. prediction: the encoder tries a spatial Lorenzo predictor within
//      the frame (kIntra), the same point in the previous frame (kDelta),
//      and a linear-in-time extrapolation from the two previous frames
//      (kDelta2, residual = cur - (2*prev - prev2)); it keeps whichever
//      residual stream codes smallest. Fields advect smoothly between
//      consecutive outputs, so kDelta2 usually wins once two frames of
//      history exist at the current resolution.
//   3. zigzag + byte planes: signed residuals become small unsigned codes
//      whose high byte planes are almost entirely zero.
//   4. adaptive range coding: one order-0 adaptive byte model per plane,
//      driven through a carry-propagating range coder. This approaches the
//      per-plane entropy — near-constant planes cost fractions of a bit
//      per value — where run-length framing would waste ~25%.
//
// Fields are presented as doubles (the compute grids) but frames on the
// wire are float32 — WRF writes single-precision output, and the modeled
// Frame::bytes assumes 4 bytes per value — so the default precision first
// narrows each value to float and codes 4 planes. Encoding is exact with
// respect to that frame representation: decode returns bit-for-bit the
// narrowed values (or the original doubles under kFloat64), including NaNs
// and signed zeros. A raw-store escape bounds pathological inputs at raw
// size + header. No dependencies beyond the standard library — dataio
// stays below the weather layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace adaptviz {

class ThreadPool;

/// A borrowed, row-major (ny, nx) view of a double field. The codec does
/// not depend on weather/Field2D; callers pass `{f.data().data(), f.nx(),
/// f.ny()}`.
struct FieldView {
  const double* data = nullptr;
  std::size_t nx = 0;
  std::size_t ny = 0;

  [[nodiscard]] std::size_t count() const { return nx * ny; }
};

/// Value width the codec works at. kFloat32 narrows each double to float
/// before coding (the frame-file precision); kFloat64 codes full doubles.
enum class CodecPrecision : std::uint8_t {
  kFloat32 = 0,
  kFloat64 = 1,
};

/// One losslessly encoded field. `payload` is self-contained: dimensions,
/// mode, precision, and the entropy-coded planes.
struct CompressedFrame {
  /// Residual predictor the encoder settled on.
  enum class Mode : std::uint8_t {
    kRaw = 0,     // verbatim values (escape hatch; never worse than raw)
    kIntra = 1,   // spatial Lorenzo prediction within the frame
    kDelta = 2,   // temporal difference against the previous frame
    kDelta2 = 3,  // linear extrapolation from the two previous frames
  };

  std::uint32_t nx = 0;
  std::uint32_t ny = 0;
  Mode mode = Mode::kRaw;
  CodecPrecision precision = CodecPrecision::kFloat32;
  std::vector<std::uint8_t> payload;

  [[nodiscard]] std::size_t value_bytes() const {
    return precision == CodecPrecision::kFloat32 ? 4 : 8;
  }
  [[nodiscard]] std::size_t raw_bytes() const {
    return static_cast<std::size_t>(nx) * ny * value_bytes();
  }
  [[nodiscard]] std::size_t encoded_bytes() const { return payload.size(); }
  /// raw/encoded; 1.0 for an empty field.
  [[nodiscard]] double ratio() const {
    return raw_bytes() == 0 || payload.empty()
               ? 1.0
               : static_cast<double>(raw_bytes()) /
                     static_cast<double>(encoded_bytes());
  }
};

/// Encodes `cur`. `prev` (the frame before `cur`) and `prev2` (the frame
/// before that) may each be null or differently sized (first frames, or a
/// resolution change mid-run); the temporal predictors quietly drop out and
/// the encoder falls back to intra/raw. Passing `prev2` without a usable
/// `prev` never selects kDelta2.
CompressedFrame encode_frame(FieldView cur, const FieldView* prev,
                             const FieldView* prev2 = nullptr,
                             CodecPrecision precision =
                                 CodecPrecision::kFloat32);

/// Exact inverse. `prev`/`prev2` must be the same views that were passed to
/// encode_frame when the mode requires them (kDelta: prev; kDelta2: both)
/// and are ignored otherwise. Under kFloat32 the returned doubles are the
/// narrowed float values — identical to what encode saw after narrowing,
/// bit for bit. Throws std::invalid_argument on a corrupt payload or a
/// missing/mismatched history frame.
std::vector<double> decode_frame(const CompressedFrame& frame,
                                 const FieldView* prev,
                                 const FieldView* prev2 = nullptr);

/// Frame-pipeline codec configuration (ExperimentConfig::codec / the
/// `[codec]` scenario section).
struct CodecOptions {
  /// Off by default: the pipeline's byte accounting is unchanged and every
  /// existing golden stands.
  bool enabled = false;
  CodecPrecision precision = CodecPrecision::kFloat32;
};

/// Aggregate result of encoding one frame's field set. The field slots
/// run concurrently, so encode_seconds and decode_seconds are per-field
/// kernel times summed over lanes and can exceed wall_seconds.
struct CodecFrameReport {
  std::size_t raw_bytes = 0;      // at the coded precision, summed
  std::size_t encoded_bytes = 0;  // payload bytes, summed
  double encode_seconds = 0.0;    // host clock, summed over fields
  double decode_seconds = 0.0;    // host clock, verify decode, summed
  double wall_seconds = 0.0;      // host wall clock of the whole call
  int fields = 0;

  [[nodiscard]] double ratio() const {
    return raw_bytes == 0 || encoded_bytes == 0
               ? 1.0
               : static_cast<double>(raw_bytes) /
                     static_cast<double>(encoded_bytes);
  }
};

/// Stateful per-run frame coder: retains the two previous frames of every
/// field slot so the temporal predictors apply, and reports measured sizes
/// and timings per frame. Fields are matched to history by position, so
/// callers must present a stable order (e.g. parent h,u,v then nest
/// h,u,v). A resolution change mid-run is handled naturally: history of
/// the old shape disables the temporal modes for one frame (two for
/// kDelta2) and the codec falls back to intra.
class FrameFieldCodec {
 public:
  explicit FrameFieldCodec(CodecOptions options);

  /// Encodes one frame's fields against the retained history, then makes
  /// `fields` the new history. Every field is decoded again and compared
  /// bit-for-bit against what was encoded, which proves losslessness on
  /// every frame and gives the decode-time measurement; throws
  /// std::logic_error if any field fails to reconstruct.
  ///
  /// Each field slot's encode and verify decode is one lane on `pool`
  /// (null uses ThreadPool::shared()), up to the pool's worker count.
  /// Slots share nothing, and the results are summed and the histories
  /// rotated in slot order after the join, so payloads and report are the
  /// same for any pool. Called from inside a pool task or region, the
  /// slots run inline. When `encoded` is non-null the frames are appended to it in
  /// slot order.
  CodecFrameReport encode_frame_fields(
      const std::vector<FieldView>& fields, ThreadPool* pool = nullptr,
      std::vector<CompressedFrame>* encoded = nullptr);

  [[nodiscard]] const CodecOptions& options() const { return options_; }
  /// Raw bytes encoded since construction.
  [[nodiscard]] std::size_t total_raw_bytes() const { return total_raw_; }
  /// Cumulative ratio over every field encoded so far (1.0 before the
  /// first frame).
  [[nodiscard]] double cumulative_ratio() const;
  /// Ratio of the most recent frame (1.0 before the first frame).
  [[nodiscard]] double last_ratio() const { return last_ratio_; }

 private:
  struct Slot {
    std::vector<double> prev, prev2;
    std::size_t prev_nx = 0, prev_ny = 0;
    std::size_t prev2_nx = 0, prev2_ny = 0;
  };

  CodecOptions options_;
  std::vector<Slot> slots_;
  std::size_t total_raw_ = 0;
  std::size_t total_encoded_ = 0;
  double last_ratio_ = 1.0;
};

}  // namespace adaptviz
