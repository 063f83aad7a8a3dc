#pragma once
// Width-templated SIMD lane packs (the Backend::Simd execution substrate).
//
// A simd_pack<T, W> is W lanes of T; a cpack<T, W> is W complex lanes in
// SoA form (separate re/im lane arrays), which is the register layout the
// rhs-contiguous BlockSpinor storage (fields/blockspinor.h) deinterleaves
// into with unit-stride loads.  All arithmetic is written as fixed-trip
// per-lane loops over plain arrays — no intrinsics — so any -march level
// compiles every width (a wider-than-native pack just becomes several
// hardware vectors) and the compiler's vectorizer does the lowering.
//
// Bit-identity contract: every cpack operation evaluates, lane by lane,
// the EXACT expression tree of the corresponding Complex<T> operation in
// linalg/complex.h (e.g. cmul computes re = a.re*b.re - a.im*b.im, im =
// a.re*b.im + a.im*b.re — the operator*= product).  A kernel that replaces
// a scalar rhs loop with lane packs therefore changes nothing about any
// single rhs's arithmetic: lanes are independent systems, and per-rhs
// results are bit-identical to the scalar kernel by construction.  This is
// what the Simd==Serial bitwise tests in tests/test_simd.cpp pin down.

#include <algorithm>
#include <cstddef>

#include "linalg/complex.h"

// Compile-time native lane cap, counted in DOUBLE lanes: how many doubles
// one native vector register holds.  Single-rhs kernels under
// Backend::Simd resolve "auto" to it; rhs-lane kernels scale it to their
// precision (native_width below: float gets twice the lanes).  Every
// width up to kSimdWidthLimit always COMPILES — the cap only decides
// which widths are worth running natively.  Override with
// -DQMG_MAX_SIMD_WIDTH=N (the CMake option); otherwise detect from the
// target ISA: 8 double lanes per SoA side needs AVX-512, 4 wants AVX, 2
// fits SSE2.
#ifndef QMG_MAX_SIMD_WIDTH
#if defined(__AVX512F__)
#define QMG_MAX_SIMD_WIDTH 8
#elif defined(__AVX__)
#define QMG_MAX_SIMD_WIDTH 4
#elif defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64) || \
    defined(__aarch64__)
#define QMG_MAX_SIMD_WIDTH 2
#else
#define QMG_MAX_SIMD_WIDTH 1
#endif
#endif

namespace qmg {
namespace simd {

/// Hard template ceiling: packs are instantiated at 1/2/4/8 only.
inline constexpr int kSimdWidthLimit = 8;

/// The build's native lane cap in double lanes (see QMG_MAX_SIMD_WIDTH
/// above).
inline constexpr int kMaxSimdWidth =
    QMG_MAX_SIMD_WIDTH < 1
        ? 1
        : (QMG_MAX_SIMD_WIDTH > kSimdWidthLimit ? kSimdWidthLimit
                                                : QMG_MAX_SIMD_WIDTH);

/// Lanes of T in one native vector: the double-lane cap scaled by
/// sizeof(double)/sizeof(T) and capped at kSimdWidthLimit, so float fills
/// the register double fills with twice the lanes (SSE2: 2 double, 4
/// float; AVX-512: 8 each).  1 in a scalar build.
template <typename T>
inline constexpr int native_width =
    kMaxSimdWidth == 1 || sizeof(T) >= sizeof(double)
        ? kMaxSimdWidth
        : std::min(kSimdWidthLimit,
                   kMaxSimdWidth *
                       static_cast<int>(sizeof(double) / sizeof(T)));

/// Round a requested width down to a supported pack width {1, 2, 4, 8}.
inline constexpr int normalize_simd_width(int w) {
  if (w >= 8) return 8;
  if (w >= 4) return 4;
  if (w >= 2) return 2;
  return 1;
}

/// Largest supported width that fits n lanes of work: what a kernel with
/// nrhs < the policy's width degrades to (the rest is scalar epilogue).
inline constexpr int width_for(int w, long n) {
  int v = normalize_simd_width(w);
  while (v > 1 && v > n) v /= 2;
  return v;
}

/// W lanes of T.  Plain aggregate: value-initialization zeroes all lanes.
template <typename T, int W>
struct alignas(sizeof(T) * W) simd_pack {
  static_assert(W >= 1 && W <= kSimdWidthLimit && (W & (W - 1)) == 0,
                "pack width must be a power of two in [1, 8]");
  T v[W];

  static simd_pack load(const T* p) {
    simd_pack r;
    for (int j = 0; j < W; ++j) r.v[j] = p[j];
    return r;
  }
  void store(T* p) const {
    for (int j = 0; j < W; ++j) p[j] = v[j];
  }
  static simd_pack broadcast(T s) {
    simd_pack r;
    for (int j = 0; j < W; ++j) r.v[j] = s;
    return r;
  }
};

/// W complex lanes, SoA (re lanes then im lanes).  Aggregate; cpack<T,W>{}
/// is W complex zeros.  Lane j mirrors one Complex<T> value.
template <typename T, int W>
struct cpack {
  simd_pack<T, W> re;
  simd_pack<T, W> im;

  /// Deinterleave W consecutive Complex<T> values (the unit-stride rhs
  /// axis of a BlockSpinor row, or W consecutive sites of a single field).
  static cpack load(const Complex<T>* p) {
    cpack r;
    for (int j = 0; j < W; ++j) {
      r.re.v[j] = p[j].re;
      r.im.v[j] = p[j].im;
    }
    return r;
  }

  /// Deinterleave + promote: lane j is Complex<T>(p[j]) — the per-element
  /// promotion the mixed-precision kernels apply before multiplying.
  template <typename TX>
  static cpack load_from(const Complex<TX>* p) {
    cpack r;
    for (int j = 0; j < W; ++j) {
      r.re.v[j] = static_cast<T>(p[j].re);
      r.im.v[j] = static_cast<T>(p[j].im);
    }
    return r;
  }

  void store(Complex<T>* p) const {
    for (int j = 0; j < W; ++j) {
      p[j].re = re.v[j];
      p[j].im = im.v[j];
    }
  }

  static cpack broadcast(Complex<T> a) {
    cpack r;
    for (int j = 0; j < W; ++j) {
      r.re.v[j] = a.re;
      r.im.v[j] = a.im;
    }
    return r;
  }

  Complex<T> lane(int j) const { return {re.v[j], im.v[j]}; }

  cpack& operator+=(const cpack& o) {
    for (int j = 0; j < W; ++j) {
      re.v[j] += o.re.v[j];
      im.v[j] += o.im.v[j];
    }
    return *this;
  }
  cpack& operator-=(const cpack& o) {
    for (int j = 0; j < W; ++j) {
      re.v[j] -= o.re.v[j];
      im.v[j] -= o.im.v[j];
    }
    return *this;
  }
};

template <typename T, int W>
inline cpack<T, W> operator+(cpack<T, W> a, const cpack<T, W>& b) {
  return a += b;
}
template <typename T, int W>
inline cpack<T, W> operator-(cpack<T, W> a, const cpack<T, W>& b) {
  return a -= b;
}

/// Broadcast-complex times pack: lane j = a * x_j with Complex::operator*='s
/// expression (re = a.re*x.re - a.im*x.im, im = a.re*x.im + a.im*x.re).
template <typename T, int W>
inline cpack<T, W> operator*(const Complex<T>& a, const cpack<T, W>& x) {
  cpack<T, W> r;
  for (int j = 0; j < W; ++j) {
    r.re.v[j] = a.re * x.re.v[j] - a.im * x.im.v[j];
    r.im.v[j] = a.re * x.im.v[j] + a.im * x.re.v[j];
  }
  return r;
}

/// Lane-wise complex product (per-lane coefficients, e.g. block_caxpy's
/// a[k]): lane j = a_j * x_j, same expression tree as operator*=.
template <typename T, int W>
inline cpack<T, W> cmul(const cpack<T, W>& a, const cpack<T, W>& x) {
  cpack<T, W> r;
  for (int j = 0; j < W; ++j) {
    r.re.v[j] = a.re.v[j] * x.re.v[j] - a.im.v[j] * x.im.v[j];
    r.im.v[j] = a.re.v[j] * x.im.v[j] + a.im.v[j] * x.re.v[j];
  }
  return r;
}

/// Broadcast-real times pack: lane j = {x.re*s, x.im*s} — exactly
/// Complex::operator*=(T) (note the operand order).
template <typename T, int W>
inline cpack<T, W> operator*(T s, const cpack<T, W>& x) {
  cpack<T, W> r;
  for (int j = 0; j < W; ++j) {
    r.re.v[j] = x.re.v[j] * s;
    r.im.v[j] = x.im.v[j] * s;
  }
  return r;
}

/// Lane-wise real scale (per-lane real coefficients, e.g. block_axpy's
/// a[k]): lane j = {x.re*s_j, x.im*s_j}.
template <typename T, int W>
inline cpack<T, W> rmul(const simd_pack<T, W>& s, const cpack<T, W>& x) {
  cpack<T, W> r;
  for (int j = 0; j < W; ++j) {
    r.re.v[j] = x.re.v[j] * s.v[j];
    r.im.v[j] = x.im.v[j] * s.v[j];
  }
  return r;
}

/// conj(a)*b with a broadcast: linalg/complex.h's conj_mul per lane.
template <typename T, int W>
inline cpack<T, W> conj_mul(const Complex<T>& a, const cpack<T, W>& b) {
  cpack<T, W> r;
  for (int j = 0; j < W; ++j) {
    r.re.v[j] = a.re * b.re.v[j] + a.im * b.im.v[j];
    r.im.v[j] = a.re * b.im.v[j] - a.im * b.re.v[j];
  }
  return r;
}

/// conj(a)*b lane-wise (per-lane a, e.g. block_cdot's x side).
template <typename T, int W>
inline cpack<T, W> conj_mul(const cpack<T, W>& a, const cpack<T, W>& b) {
  cpack<T, W> r;
  for (int j = 0; j < W; ++j) {
    r.re.v[j] = a.re.v[j] * b.re.v[j] + a.im.v[j] * b.im.v[j];
    r.im.v[j] = a.re.v[j] * b.im.v[j] - a.im.v[j] * b.re.v[j];
  }
  return r;
}

/// |x|^2 per lane (re*re + im*im in T, like qmg::norm2).
template <typename T, int W>
inline simd_pack<T, W> norm2(const cpack<T, W>& x) {
  simd_pack<T, W> r;
  for (int j = 0; j < W; ++j)
    r.v[j] = x.re.v[j] * x.re.v[j] + x.im.v[j] * x.im.v[j];
  return r;
}

/// Dispatch a runtime width to the matching compile-time pack width.  The
/// functor receives std::integral_constant-style tag (any type with a
/// constexpr value): f(width_tag<W>{}).
template <int W>
struct width_tag {
  static constexpr int value = W;
};

template <typename F>
inline void dispatch_width(int w, F&& f) {
  switch (normalize_simd_width(w)) {
    case 8:
      f(width_tag<8>{});
      return;
    case 4:
      f(width_tag<4>{});
      return;
    case 2:
      f(width_tag<2>{});
      return;
    default:
      f(width_tag<1>{});
      return;
  }
}

}  // namespace simd
}  // namespace qmg
