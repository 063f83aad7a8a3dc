#pragma once
// The coarse stencil of paper Eq. 3 (eight hop links plus the diagonal per
// site, dense N x N blocks) in one place: its storage in every precision
// format, the row views the kernels read it through, and the per-site
// kernel bodies of every coarse operator.
//
// The replicated operator (CoarseDirac: mg/coarse_op.cpp, mg/mrhs.cpp)
// holds one CoarseStencilStorage; the domain-decomposed operator
// (DistributedCoarseOp: comm/dist_coarse.cpp) holds one per rank.  Both run
// the same four bodies below and differ only in the neighbour-pointer
// resolver they pass: the replicated operator resolves neighbours through
// its geometry and the field's site_data, a rank through its decomposition
// and site_or_ghost (section 6.5's ghost zones).  Every caller therefore
// runs the same arithmetic in the same order, which is why distributed
// applies are bit-identical to replicated ones at the same kernel config.
//
// Row-view protocol: `row(...)` returns a pointer to n contiguous Complex
// elements.  Dense storage returns a zero-copy pointer into the block and
// ignores the scratch argument; Half16 dequantizes into the caller's
// scratch row and returns it.  Callers provide `kScratchRow` elements of
// scratch per simultaneously-live row.

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "fields/halflinks.h"
#include "gpusim/kernels.h"
#include "lattice/geometry.h"
#include "linalg/complex.h"
#include "linalg/smallmat.h"
#include "mg/coarse_row.h"
#include "parallel/dispatch.h"

namespace qmg {

/// Storage format of the coarse links/diagonal (paper section 4, strategy
/// (c)).  The apply kernels READ this storage but ACCUMULATE in the
/// operator's working precision T (the storage-vs-accumulation split of
/// mg/coarse_row.h), so Single/Half16 cut the bandwidth-bound stencil
/// traffic ~2x/~4x relative to a double-precision operator at unchanged
/// accumulation order; the truncation error is bounded by the K-cycle's
/// restarted-GCR true-residual recomputation (the reliable updates).
///   Native — links/diag in Complex<T> (the historical behavior).
///   Single — links/diag truncated to Complex<float> (no-op when T=float).
///   Half16 — links/diag in 16-bit fixed point (fields/halflinks.h), rows
///            dequantized on the fly; the diagonal inverse stays float
///            (its conditioning does not tolerate Q15 quantization).
enum class CoarseStorage { Native, Single, Half16 };

inline const char* to_string(CoarseStorage s) {
  switch (s) {
    case CoarseStorage::Native: return "native";
    case CoarseStorage::Single: return "single";
    default: return "half16";
  }
}

namespace detail {

/// CoarseDirac<T>::kNLinks for every T.
inline constexpr int kCoarseLinks = 8;

/// Stack budget per scratch row and per gathered vector
/// (CoarseDirac<T>::kMaxBlockDim for every T; compress enforces N <= this
/// for Half16).
inline constexpr int kCoarseMaxBlockDim = 128;

/// Zero-copy row view over dense (native T or compressed float) stencil
/// storage.  value_type is the storage element type TM the kernels promote
/// to the accumulation type.
template <typename TM>
struct DenseStencil {
  using value_type = TM;
  static constexpr size_t kScratchRow = 1;  // row() never touches scratch

  const Complex<TM>* links;
  const Complex<TM>* diag;
  int n;

  const Complex<TM>* link_row(long site, int l, int r, Complex<TM>*) const {
    const size_t nn = static_cast<size_t>(n) * n;
    return links + (static_cast<size_t>(site) * kCoarseLinks + l) * nn +
           static_cast<size_t>(r) * n;
  }
  const Complex<TM>* diag_row(long site, int r, Complex<TM>*) const {
    const size_t nn = static_cast<size_t>(n) * n;
    return diag + static_cast<size_t>(site) * nn + static_cast<size_t>(r) * n;
  }
  /// Stencil index m: 0 = diagonal, 1..8 = link m-1 (the mats[] order of
  /// the row kernels in mg/coarse_row.h).
  const Complex<TM>* stencil_row(long site, int m, int r,
                                 Complex<TM>* scratch) const {
    return m == 0 ? diag_row(site, r, scratch)
                  : link_row(site, m - 1, r, scratch);
  }
};

/// Dequantizing row view over Half16 storage: each requested row is
/// expanded from 16-bit fixed point into the caller's scratch row, so the
/// hot loops still stream contiguous Complex<float> rows while the memory
/// traffic is the quantized bytes.
struct HalfStencil {
  using value_type = float;
  static constexpr size_t kScratchRow =
      static_cast<size_t>(kCoarseMaxBlockDim);

  const HalfCoarseLinks* h;
  int n;

  const Complex<float>* link_row(long site, int l, int r,
                                 Complex<float>* scratch) const {
    h->load_row(site, l, r, scratch);
    return scratch;
  }
  const Complex<float>* diag_row(long site, int r,
                                 Complex<float>* scratch) const {
    h->load_row(site, HalfCoarseLinks::kDiagBlock, r, scratch);
    return scratch;
  }
  const Complex<float>* stencil_row(long site, int m, int r,
                                    Complex<float>* scratch) const {
    return m == 0 ? diag_row(site, r, scratch)
                  : link_row(site, m - 1, r, scratch);
  }
};

template <typename V>
void release(V& v) {
  V().swap(v);
}

}  // namespace detail

/// The coarse stencil's storage in exactly one format: native links and
/// diagonal in Complex<T>, float links and diagonal (Single), or Half16
/// quantized blocks, plus the diagonal inverse in T (Native) or float
/// (compressed).  visit() and visit_inverse() are the one place the
/// format becomes a row view; every kernel reads the stencil through them.
template <typename T>
class CoarseStencilStorage {
 public:
  CoarseStencilStorage() = default;
  /// Zeroed native storage of `nsites` sites of N x N blocks (the Galerkin
  /// builder fills it through link_data/diag_data).
  CoarseStencilStorage(long nsites, int n)
      : nsites_(nsites),
        n_(n),
        links_(block_elems() * detail::kCoarseLinks),
        diag_(block_elems()) {}

  long nsites() const { return nsites_; }
  int block_dim() const { return n_; }
  CoarseStorage format() const { return format_; }
  bool has_native() const { return !links_.empty(); }
  bool has_diag_inverse() const { return !inv_.empty() || !inv_lo_.empty(); }

  // Raw NATIVE blocks (row-major N x N); released by compress().
  Complex<T>* link_data(long site, int link) {
    return links_.data() + link_offset(site, link);
  }
  const Complex<T>* link_data(long site, int link) const {
    return links_.data() + link_offset(site, link);
  }
  Complex<T>* diag_data(long site) { return diag_.data() + diag_offset(site); }
  const Complex<T>* diag_data(long site) const {
    return diag_.data() + diag_offset(site);
  }

  /// fn(row view of the active format): DenseStencil<T>, DenseStencil<float>
  /// or HalfStencil.
  template <typename Fn>
  void visit(Fn&& fn) const {
    switch (format_) {
      case CoarseStorage::Single:
        fn(detail::DenseStencil<float>{links_lo_.data(), diag_lo_.data(), n_});
        return;
      case CoarseStorage::Half16:
        fn(detail::HalfStencil{&half_, n_});
        return;
      default:
        fn(detail::DenseStencil<T>{links_.data(), diag_.data(), n_});
    }
  }

  /// fn(row view whose diag_row is the diagonal inverse): T for Native,
  /// float for compressed formats.
  template <typename Fn>
  void visit_inverse(Fn&& fn) const {
    if (!has_diag_inverse())
      throw std::logic_error(
          "coarse stencil: compute_diag_inverse() was never called");
    if (format_ == CoarseStorage::Native)
      fn(detail::DenseStencil<T>{nullptr, inv_.data(), n_});
    else
      fn(detail::DenseStencil<float>{nullptr, inv_lo_.data(), n_});
  }

  /// Short (accumulation, storage) tag for tune-cache keys and bench
  /// labels: "d"/"f" for native double/float, plus "f"/"h" for compressed
  /// storage, e.g. "df" = double accumulation over float links.
  std::string precision_tag() const {
    std::string tag(1, sizeof(T) == 4 ? 'f' : 'd');
    if (format_ == CoarseStorage::Single) tag += 'f';
    if (format_ == CoarseStorage::Half16) tag += 'h';
    return tag;
  }

  /// Stencil bytes (links + diagonal) one apply reads per site.  For
  /// Half16 this matches HalfCoarseLinks::bytes_per_site.
  double stencil_bytes_per_site() const {
    const double nn = static_cast<double>(n_) * n_;
    switch (format_) {
      case CoarseStorage::Single:
        return 9.0 * nn * 2 * sizeof(float);
      case CoarseStorage::Half16:
        return 9.0 * (nn * 2 * sizeof(std::int16_t) + sizeof(float));
      default:
        return 9.0 * nn * 2 * sizeof(T);
    }
  }

  /// The device-model precision of an apply: the format sets the bytes the
  /// SimtModel backend charges for.
  SimPrecision sim_precision() const {
    switch (format_) {
      case CoarseStorage::Single: return SimPrecision::Single;
      case CoarseStorage::Half16: return SimPrecision::Half;
      default:
        return sizeof(T) == 4 ? SimPrecision::Single : SimPrecision::Double;
    }
  }

  /// Truncate the native links/diagonal (and the inverse, when present)
  /// into `storage` and release the native arrays.  Single with T=float is
  /// a no-op (native already IS single).
  void compress(CoarseStorage storage) {
    if (storage == format_) return;
    if (storage == CoarseStorage::Native)
      throw std::invalid_argument(
          "compress_storage: native storage cannot be restored once "
          "released");
    if (!has_native())
      throw std::logic_error(
          "compress_storage: native storage already released");
    if (storage == CoarseStorage::Single && sizeof(T) == sizeof(float))
      return;
    if (storage == CoarseStorage::Half16) {
      check_half_dim("compress_storage");
      half_ = HalfCoarseLinks(nsites_, n_);
      for (long site = 0; site < nsites_; ++site) {
        for (int l = 0; l < detail::kCoarseLinks; ++l)
          half_.store_block(site, l, link_data(site, l));
        half_.store_block(site, HalfCoarseLinks::kDiagBlock, diag_data(site));
      }
    } else {
      links_lo_ = to_float(links_);
      diag_lo_ = to_float(diag_);
    }
    if (!inv_.empty()) {
      inv_lo_ = to_float(inv_);
      detail::release(inv_);
    }
    detail::release(links_);
    detail::release(diag_);
    format_ = storage;
  }

  /// Per-site X^{-1}.  The LU runs in T whatever the format; the diagonal
  /// blocks are read through the active row view and the inverse is kept
  /// in the format's precision (T for Native, float otherwise).
  void compute_diag_inverse() {
    const bool native = format_ == CoarseStorage::Native;
    if (native)
      inv_.assign(block_elems(), Complex<T>{});
    else
      inv_lo_.assign(block_elems(), Complex<float>{});
    const int n = n_;
    visit([&](const auto& st) {
      using St = std::decay_t<decltype(st)>;
      using TM = typename St::value_type;
      parallel_for(nsites_, [&](long site) {
        SmallMatrix<T> m(n, n);
        Complex<TM> scratch[St::kScratchRow];
        for (int r = 0; r < n; ++r) {
          const Complex<TM>* d = st.diag_row(site, r, scratch);
          for (int c = 0; c < n; ++c) m(r, c) = Complex<T>(d[c]);
        }
        const SmallMatrix<T> inv = LuFactor<T>(m).inverse();
        const size_t base = diag_offset(site);
        for (int r = 0; r < n; ++r)
          for (int c = 0; c < n; ++c) {
            const size_t k = base + static_cast<size_t>(r) * n + c;
            if (native)
              inv_[k] = inv(r, c);
            else
              inv_lo_[k] = Complex<float>(inv(r, c));
          }
      });
    });
  }

  /// Quantized copy of the stencil: Half16 copies its blocks (no second
  /// quantization pass), the dense formats quantize on the way out.
  HalfCoarseLinks snapshot_half_links() const {
    if (format_ == CoarseStorage::Half16) return half_;
    HalfCoarseLinks out(nsites_, n_);
    visit([&](const auto& st) {
      if constexpr (!std::is_same_v<std::decay_t<decltype(st)>,
                                    detail::HalfStencil>) {
        for (long site = 0; site < nsites_; ++site) {
          for (int l = 0; l < detail::kCoarseLinks; ++l)
            out.store_block(site, l, st.link_row(site, l, 0, nullptr));
          out.store_block(site, HalfCoarseLinks::kDiagBlock,
                          st.diag_row(site, 0, nullptr));
        }
      }
    });
    return out;
  }

  /// Float copy of the diagonal inverse (never pushed through Q15).
  std::vector<Complex<float>> snapshot_diag_inverse() const {
    if (!has_diag_inverse())
      throw std::logic_error(
          "CoarseDirac::snapshot_diag_inverse: compute_diag_inverse() was "
          "never called on this operator");
    return inv_lo_.empty() ? to_float(inv_) : inv_lo_;
  }

  /// Install a Half16 stencil and float inverse as the active storage,
  /// releasing every other array.
  void install_half(HalfCoarseLinks stencil,
                    std::vector<Complex<float>> diag_inv) {
    if (stencil.nsites() != nsites_ || stencil.block_dim() != n_)
      throw std::invalid_argument(
          "CoarseDirac::install_half_storage: stencil shape mismatch (got " +
          std::to_string(stencil.nsites()) + " sites x N=" +
          std::to_string(stencil.block_dim()) + ", operator has " +
          std::to_string(nsites_) + " x N=" + std::to_string(n_) + ")");
    if (diag_inv.size() != block_elems())
      throw std::invalid_argument(
          "CoarseDirac::install_half_storage: diag-inverse size mismatch "
          "(got " + std::to_string(diag_inv.size()) + ", want " +
          std::to_string(block_elems()) + ")");
    check_half_dim("CoarseDirac::install_half_storage");
    half_ = std::move(stencil);
    inv_lo_ = std::move(diag_inv);
    detail::release(links_);
    detail::release(diag_);
    detail::release(inv_);
    detail::release(links_lo_);
    detail::release(diag_lo_);
    format_ = CoarseStorage::Half16;
  }

  /// The per-rank split: a copy holding only `sites` (site i of the copy
  /// is sites[i] here) in this storage's format, inverse included.  Every
  /// array, Half16's int16 blocks and scales too, is copied raw, so every
  /// row of the copy resolves bit-identically to the original's.
  CoarseStencilStorage extract_sites(const std::vector<long>& sites) const {
    CoarseStencilStorage out;
    out.nsites_ = static_cast<long>(sites.size());
    out.n_ = n_;
    out.format_ = format_;
    const size_t nn = static_cast<size_t>(n_) * n_;
    out.links_ = gather(links_, sites, nn * detail::kCoarseLinks);
    out.diag_ = gather(diag_, sites, nn);
    out.links_lo_ = gather(links_lo_, sites, nn * detail::kCoarseLinks);
    out.diag_lo_ = gather(diag_lo_, sites, nn);
    out.inv_ = gather(inv_, sites, nn);
    out.inv_lo_ = gather(inv_lo_, sites, nn);
    if (!half_.empty()) {
      out.half_ = HalfCoarseLinks(out.nsites_, n_);
      for (long i = 0; i < out.nsites_; ++i)
        out.half_.copy_site(i, half_, sites[static_cast<size_t>(i)]);
    }
    return out;
  }

 private:
  size_t block_elems() const {
    return static_cast<size_t>(nsites_) * n_ * n_;
  }
  size_t link_offset(long site, int link) const {
    return (static_cast<size_t>(site) * detail::kCoarseLinks + link) * n_ *
           n_;
  }
  size_t diag_offset(long site) const {
    return static_cast<size_t>(site) * n_ * n_;
  }
  void check_half_dim(const char* what) const {
    if (n_ > detail::kCoarseMaxBlockDim)
      throw std::invalid_argument(
          std::string(what) +
          ": Half16 dequantizes rows into kMaxBlockDim scratch; N exceeds "
          "it");
  }
  template <typename U>
  static std::vector<Complex<float>> to_float(const std::vector<U>& v) {
    return std::vector<Complex<float>>(v.begin(), v.end());
  }
  template <typename V>
  static V gather(const V& src, const std::vector<long>& sites, size_t per) {
    V out;
    if (src.empty()) return out;
    out.resize(sites.size() * per);
    for (size_t i = 0; i < sites.size(); ++i)
      std::copy_n(src.begin() + static_cast<long>(sites[i] * per), per,
                  out.begin() + static_cast<long>(i * per));
    return out;
  }

  long nsites_ = 0;
  int n_ = 0;
  CoarseStorage format_ = CoarseStorage::Native;
  std::vector<Complex<T>> links_, diag_, inv_;
  std::vector<Complex<float>> links_lo_, diag_lo_, inv_lo_;
  HalfCoarseLinks half_;
};

namespace detail {

/// The neighbour-pointer resolver of the kernel bodies: fills x[0..8] with
/// the data of `site` and its eight neighbours in stencil order (m = 0 the
/// site itself, 1 + 2 mu forward, 2 + 2 mu backward).  `lat` supplies the
/// neighbour indices: a LatticeGeometry, or a DomainDecomposition whose
/// indices past the local volume are ghost slots.  `at` maps an index to
/// its data: a field's site_data, or a rank's site_or_ghost.
template <typename Lattice, typename At>
struct StencilNeighbors {
  const Lattice& lat;
  At at;

  template <typename P>
  void operator()(long site, P* x) const {
    x[0] = at(site);
    for (int mu = 0; mu < kNDim; ++mu) {
      x[1 + 2 * mu] = at(lat.neighbor_fwd(site, mu));
      x[2 + 2 * mu] = at(lat.neighbor_bwd(site, mu));
    }
  }
};

template <typename Lattice, typename At>
StencilNeighbors<Lattice, At> stencil_neighbors(const Lattice& lat, At at) {
  return {lat, at};
}

/// Stage 1, the single-rhs full apply: output rows [r0, r1) of one site,
/// each the nine stencil rows against the nine input vectors through
/// coarse_row_span (storage rows promoted, accumulation in T).
template <typename T, typename St, typename Nbrs>
inline void coarse_apply_rows(const St& st, const Nbrs& nbrs, long site,
                              int r0, int r1, Complex<T>* dst,
                              const CoarseKernelConfig& cfg) {
  using TM = typename St::value_type;
  const Complex<T>* xin[9];
  nbrs(site, xin);
  Complex<TM> scratch[9 * St::kScratchRow];
  for (int r = r0; r < r1; ++r) {
    const Complex<TM>* rows[9];
    for (int m = 0; m < 9; ++m)
      rows[m] = st.stencil_row(site, m, r, scratch + m * St::kScratchRow);
    dst[r] = coarse_row_span<T, TM, T>(rows, xin, st.n, cfg);
  }
}

/// Stage 2, the rhs-tiled block apply: every output row of one site over
/// rhs [k0, k1) of rhs-contiguous blocks (`nrhs` per site vector element).
/// Each stencil row is resolved (or dequantized) once per row and rhs tile
/// and streamed over the rhs axis unit-stride.  With W > 1 a tile's full
/// W-lane packs go through one coarse_row_mrhs_pack call and the tile % W
/// remainder through the scalar span; lanes mirror the scalar tree, so the
/// per-rhs results do not depend on W.  The caller aligns rhs_block to W
/// (with_rhs_lanes) so no dispatch item splits a pack.
template <int W, typename T, typename TX, typename St, typename Nbrs>
inline void coarse_apply_rhs_tile(const St& st, const Nbrs& nbrs, long site,
                                  long k0, long k1, long nrhs,
                                  Complex<T>* dst_site,
                                  const CoarseKernelConfig& cfg) {
  using TM = typename St::value_type;
  const Complex<TX>* base[9];
  nbrs(site, base);
  Complex<TM> scratch[9 * St::kScratchRow];
  for (long t0 = k0; t0 < k1; t0 += kCoarseRowMaxTile) {
    const int tile =
        static_cast<int>(std::min<long>(kCoarseRowMaxTile, k1 - t0));
    const int groups = W > 1 ? tile / W : 0;
    const int rem = tile - groups * W;
    const Complex<TX>* xin[9];
    const Complex<TX>* xin_rem[9];
    for (int m = 0; m < 9; ++m) {
      xin[m] = base[m] + t0;
      xin_rem[m] = xin[m] + groups * W;
    }
    Complex<T>* dst = dst_site + t0;
    for (int r = 0; r < st.n; ++r) {
      const Complex<TM>* rows[9];
      for (int m = 0; m < 9; ++m)
        rows[m] = st.stencil_row(site, m, r, scratch + m * St::kScratchRow);
      Complex<T>* const dr = dst + static_cast<long>(r) * nrhs;
      if constexpr (W > 1) {
        if (groups > 0)
          coarse_row_mrhs_pack_groups<T, TM, TX, W>(rows, xin, nrhs, st.n,
                                                    cfg, groups, dr);
      }
      if (rem > 0)
        coarse_row_mrhs_span<T, TM, TX>(rows, xin_rem, nrhs, st.n, cfg, rem,
                                        dr + groups * W);
    }
  }
}

/// Stage 3, the parity hop of one (site, rhs k): row r is the sum of the
/// eight link rows against the neighbour vectors, m-major.  Vector
/// elements sit `stride` apart (1 for a field, nrhs for a block, whose
/// neighbour vectors are gathered first); dst_site is the output site's
/// data, written at the same stride.
template <typename T, typename St, typename Nbrs>
inline void coarse_hop_rows(const St& st, const Nbrs& nbrs, long site, long k,
                            long stride, Complex<T>* dst_site) {
  using TM = typename St::value_type;
  const int n = st.n;
  const Complex<T>* x[9];
  nbrs(site, x);
  Complex<T> xbuf[8 * kCoarseMaxBlockDim];
  if (stride != 1) {  // a field (stride 1) has k == 0 and is read in place
    for (int m = 1; m < 9; ++m) {
      Complex<T>* buf = xbuf + (m - 1) * n;
      for (int d = 0; d < n; ++d) buf[d] = x[m][k + d * stride];
      x[m] = buf;
    }
  }
  Complex<T>* dst = dst_site + k;
  Complex<TM> scratch[St::kScratchRow];
  for (int r = 0; r < n; ++r) {
    Complex<T> acc{};
    for (int m = 0; m < 8; ++m) {
      const Complex<TM>* row = st.link_row(site, m, r, scratch);
      const Complex<T>* xm = x[m + 1];
      for (int c = 0; c < n; ++c) acc += Complex<T>(row[c]) * xm[c];
    }
    dst[r * stride] = acc;
  }
}

/// Stage 4, the diagonal (or, through visit_inverse, inverse-diagonal)
/// block of one (site, rhs k): src_site/dst_site are the site's input and
/// output data, elements `stride` apart as in coarse_hop_rows.
template <typename T, typename St>
inline void coarse_diag_rows(const St& st, long site, const Complex<T>* src_site,
                             long k, long stride, Complex<T>* dst_site) {
  using TM = typename St::value_type;
  const int n = st.n;
  const Complex<T>* x = src_site + k;
  Complex<T> xbuf[kCoarseMaxBlockDim];
  if (stride != 1) {
    for (int d = 0; d < n; ++d) xbuf[d] = x[d * stride];
    x = xbuf;
  }
  Complex<T>* dst = dst_site + k;
  Complex<TM> scratch[St::kScratchRow];
  for (int r = 0; r < n; ++r) {
    Complex<T> acc{};
    const Complex<TM>* row = st.diag_row(site, r, scratch);
    for (int c = 0; c < n; ++c) acc += Complex<T>(row[c]) * x[c];
    dst[r * stride] = acc;
  }
}

/// Runs launch(width_tag<W>, policy) at the rhs lane width of precision T
/// over nrhs right-hand sides (rhs_lane_width; W = 1 on scalar policies),
/// with the policy's rhs_block aligned up to whole packs.
template <typename T, typename Launch>
inline void with_rhs_lanes(const LaunchPolicy& policy, long nrhs,
                           Launch&& launch) {
  simd::dispatch_width(rhs_lane_width<T>(policy, nrhs), [&](auto wc) {
    launch(wc, align_rhs_block(policy, decltype(wc)::value));
  });
}

}  // namespace detail
}  // namespace qmg
