/**
 * @file
 * Functional backing store: a sparse paged model of the device-local memory
 * (the FPGA board DRAM of the paper). All functional loads/stores and the
 * host-side driver copies go through this object; the timing models only
 * carry addresses.
 *
 * One Ram belongs to one Processor and is touched only by the thread
 * simulating it; parallel campaigns and the fabric service give every
 * run its own Device, so nothing here is shared across host threads.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/types.h"

namespace vortex::mem {

/** Sparse RAM covering the full 32-bit physical space (64 KiB pages). */
class Ram
{
  public:
    static constexpr uint32_t kPageBits = 16;
    static constexpr uint32_t kPageSize = 1u << kPageBits;
    static constexpr uint32_t kNumPages = 1u << (32 - kPageBits);

    Ram() : pages_(kNumPages), codePages_(kNumPages) {}
    ~Ram() { clear(); }

    Ram(const Ram&) = delete;
    Ram& operator=(const Ram&) = delete;

    uint8_t read8(Addr addr) const;
    uint16_t read16(Addr addr) const;
    uint32_t read32(Addr addr) const;
    float readFloat(Addr addr) const;

    void write8(Addr addr, uint8_t value);
    void write16(Addr addr, uint16_t value);
    void write32(Addr addr, uint32_t value);
    void writeFloat(Addr addr, float value);

    /** Bulk copy helpers used by the simulated PCIe driver. */
    void writeBlock(Addr addr, const void* src, size_t size);
    void readBlock(Addr addr, void* dst, size_t size) const;

    //
    // Code-page write tracking (decode-cache invalidation hook).
    //
    // A core's decoded-instruction cache assumes code is not
    // self-modifying. That assumption is *checked*, not silent: the core
    // marks every page it decodes from, any store that lands on a marked
    // page bumps the global code-write epoch, and the decode cache
    // flushes itself whenever the epoch moved (see core/decode_cache.h).
    // Unmarked pages — the overwhelming store traffic — cost one flag
    // load per store.
    //

    /** Mark the page containing @p addr as holding decoded code. */
    void markCodePage(Addr addr) { codePages_[addr >> kPageBits] = 1; }

    /** Monotonic count of stores that hit a marked code page. */
    uint64_t codeWriteEpoch() const { return codeWriteEpoch_; }

    /** Zero everything (drop all pages). Not safe during simulation. */
    void
    clear()
    {
        for (uint8_t*& p : pages_) {
            delete[] p;
            p = nullptr;
        }
        std::fill(codePages_.begin(), codePages_.end(), 0);
        ++codeWriteEpoch_;
        numPages_ = 0;
    }

    /** Number of touched pages (for tests). */
    size_t numPages() const { return numPages_; }

  private:
    /** Get the page backing @p addr, allocating (zeroed) on first touch. */
    uint8_t*
    page(Addr addr)
    {
        uint8_t*& p = pages_[addr >> kPageBits];
        if (!p) {
            p = new uint8_t[kPageSize]();
            ++numPages_;
        }
        return p;
    }

    const uint8_t*
    pageIfPresent(Addr addr) const
    {
        return pages_[addr >> kPageBits];
    }

    /** Bump the code-write epoch when @p addr lies on a marked page. */
    void
    noteWrite(Addr addr)
    {
        if (codePages_[addr >> kPageBits])
            ++codeWriteEpoch_;
    }

    std::vector<uint8_t*> pages_;
    std::vector<uint8_t> codePages_; ///< decoded-from flags
    uint64_t codeWriteEpoch_ = 0;
    size_t numPages_ = 0;
};

inline uint8_t
Ram::read8(Addr addr) const
{
    const uint8_t* p = pageIfPresent(addr);
    return p ? p[addr & (kPageSize - 1)] : 0;
}

inline void
Ram::write8(Addr addr, uint8_t value)
{
    noteWrite(addr);
    page(addr)[addr & (kPageSize - 1)] = value;
}

inline uint16_t
Ram::read16(Addr addr) const
{
    return static_cast<uint16_t>(read8(addr)) |
           (static_cast<uint16_t>(read8(addr + 1)) << 8);
}

inline uint32_t
Ram::read32(Addr addr) const
{
    // Fast path: aligned, so the word lies within one page.
    if ((addr & 3) == 0) {
        uint32_t v = 0;
        if (const uint8_t* p = pageIfPresent(addr))
            std::memcpy(&v, p + (addr & (kPageSize - 1)), 4);
        return v;
    }
    return static_cast<uint32_t>(read16(addr)) |
           (static_cast<uint32_t>(read16(addr + 2)) << 16);
}

inline void
Ram::write16(Addr addr, uint16_t value)
{
    write8(addr, value & 0xFF);
    write8(addr + 1, value >> 8);
}

inline void
Ram::write32(Addr addr, uint32_t value)
{
    if ((addr & 3) == 0) {
        noteWrite(addr);
        std::memcpy(page(addr) + (addr & (kPageSize - 1)), &value, 4);
        return;
    }
    write16(addr, value & 0xFFFF);
    write16(addr + 2, value >> 16);
}

inline float
Ram::readFloat(Addr addr) const
{
    uint32_t u = read32(addr);
    float f;
    std::memcpy(&f, &u, 4);
    return f;
}

inline void
Ram::writeFloat(Addr addr, float value)
{
    uint32_t u;
    std::memcpy(&u, &value, 4);
    write32(addr, u);
}

inline void
Ram::writeBlock(Addr addr, const void* src, size_t size)
{
    const uint8_t* s = static_cast<const uint8_t*>(src);
    size_t i = 0;
    while (i < size) {
        uint32_t off = (addr + i) & (kPageSize - 1);
        size_t chunk = std::min<size_t>(size - i, kPageSize - off);
        noteWrite(addr + static_cast<Addr>(i));
        std::memcpy(page(addr + static_cast<Addr>(i)) + off, s + i, chunk);
        i += chunk;
    }
}

inline void
Ram::readBlock(Addr addr, void* dst, size_t size) const
{
    uint8_t* d = static_cast<uint8_t*>(dst);
    size_t i = 0;
    while (i < size) {
        uint32_t off = (addr + i) & (kPageSize - 1);
        size_t chunk = std::min<size_t>(size - i, kPageSize - off);
        if (const uint8_t* p = pageIfPresent(addr + static_cast<Addr>(i)))
            std::memcpy(d + i, p + off, chunk);
        else
            std::memset(d + i, 0, chunk);
        i += chunk;
    }
}

} // namespace vortex::mem
