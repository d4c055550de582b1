// Page-level types shared by the memory substrate and the DSM protocols.
#ifndef SRC_MEM_PAGE_H_
#define SRC_MEM_PAGE_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/time.h"

namespace mmem {

// The paper's Mirage uses 512-byte pages (the VAX hardware page size).
inline constexpr int kPageSize = 512;

using SegmentId = int;
using PageNum = int;
using VAddr = std::uint64_t;

// A set of sites encoded as a bitmask (site id == bit index). Mirrors the
// "reader mask" field of the paper's auxpte (Table 2); supports kMaxSites
// sites, far beyond the paper's three-VAX network. Implemented as a fixed
// array of words so scale experiments can model hundreds of sites; the
// implicit word-0 constructor keeps `SiteMask m = 0;` and compares against
// integer literals working as they did when this was a plain uint64_t.
inline constexpr int kMaxSites = 512;

struct SiteMask {
  static constexpr int kWords = kMaxSites / 64;
  std::array<std::uint64_t, kWords> words{};

  constexpr SiteMask() = default;
  constexpr SiteMask(std::uint64_t low) { words[0] = low; }  // NOLINT(runtime/explicit)

  friend constexpr SiteMask operator|(SiteMask a, const SiteMask& b) {
    for (int i = 0; i < kWords; ++i) a.words[i] |= b.words[i];
    return a;
  }
  friend constexpr SiteMask operator&(SiteMask a, const SiteMask& b) {
    for (int i = 0; i < kWords; ++i) a.words[i] &= b.words[i];
    return a;
  }
  friend constexpr SiteMask operator^(SiteMask a, const SiteMask& b) {
    for (int i = 0; i < kWords; ++i) a.words[i] ^= b.words[i];
    return a;
  }
  friend constexpr SiteMask operator~(SiteMask a) {
    for (int i = 0; i < kWords; ++i) a.words[i] = ~a.words[i];
    return a;
  }
  SiteMask& operator|=(const SiteMask& b) { return *this = *this | b; }
  SiteMask& operator&=(const SiteMask& b) { return *this = *this & b; }
  SiteMask& operator^=(const SiteMask& b) { return *this = *this ^ b; }
  friend constexpr bool operator==(const SiteMask& a, const SiteMask& b) {
    for (int i = 0; i < kWords; ++i) {
      if (a.words[i] != b.words[i]) return false;
    }
    return true;
  }
  friend constexpr bool operator!=(const SiteMask& a, const SiteMask& b) {
    return !(a == b);
  }
};

inline SiteMask MaskOf(mnet::SiteId s) {
  SiteMask m;
  m.words[s >> 6] = std::uint64_t{1} << (s & 63);
  return m;
}
inline bool MaskHas(const SiteMask& m, mnet::SiteId s) {
  return (m.words[s >> 6] & (std::uint64_t{1} << (s & 63))) != 0;
}
inline int MaskCount(const SiteMask& m) {
  int n = 0;
  for (std::uint64_t w : m.words) n += __builtin_popcountll(w);
  return n;
}
// Render a mask for trace/diagnostic text. Masks confined to sites 0..63
// print as the decimal value the old uint64_t representation produced
// (keeping existing trace goldens stable); wider masks print as hex words.
inline std::string MaskToString(const SiteMask& m) {
  bool high = false;
  for (int i = 1; i < SiteMask::kWords; ++i) {
    if (m.words[i] != 0) high = true;
  }
  if (!high) {
    return std::to_string(m.words[0]);
  }
  char buf[2 + SiteMask::kWords * 16 + 1];
  char* p = buf;
  *p++ = '0';
  *p++ = 'x';
  for (int i = SiteMask::kWords - 1; i >= 0; --i) {
    p += std::snprintf(p, 17, "%016llx",
                       static_cast<unsigned long long>(m.words[i]));
  }
  return std::string(buf, p - buf);
}
// Lowest set site, or -1 if the mask is empty.
inline int MaskLowest(const SiteMask& m) {
  for (int i = 0; i < SiteMask::kWords; ++i) {
    if (m.words[i] != 0) {
      return i * 64 + __builtin_ctzll(m.words[i]);
    }
  }
  return -1;
}
// Calls fn(site) for every site in the mask, lowest first (the sequential
// point-to-point order of the paper's §7.1).
template <typename Fn>
void ForEachSite(const SiteMask& mask, Fn&& fn) {
  for (int wi = 0; wi < SiteMask::kWords; ++wi) {
    std::uint64_t w = mask.words[wi];
    while (w != 0) {
      int s = wi * 64 + __builtin_ctzll(w);
      w &= w - 1;
      fn(static_cast<mnet::SiteId>(s));
    }
  }
}

// Raw contents of one page.
using PageBytes = std::vector<std::uint8_t>;

// Hardware-style page table entry. `aux` is the paper's "unused bit in the
// standard page table entry which indicates that an auxiliary parallel page
// table should be consulted when a page fault occurs".
struct Pte {
  bool valid = false;
  bool writable = false;
  bool aux = false;
};

// Auxiliary parallel page table entry (paper Table 2). One table per segment
// per site; entry N describes page N.
//
// The paper stores the window in clock ticks; we keep microseconds
// internally for sweep resolution and expose tick conversions at the API.
struct AuxPte {
  SiteMask reader_mask = 0;            // sites using this page (clock site's view)
  mnet::SiteId writer = mnet::kNoSite; // current writer site, if any
  msim::Duration window_us = 0;        // Delta: guaranteed possession window
  msim::Time install_time = 0;         // when this page was installed here
};

}  // namespace mmem

#endif  // SRC_MEM_PAGE_H_
