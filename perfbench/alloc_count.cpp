/**
 * @file
 * The benchmark's own counting allocator: strong definitions of the
 * support/allochook.hpp accessors plus replacement global operator
 * new/delete that count per thread. Only the plain and aligned
 * forms are replaced; the standard makes the array and nothrow forms
 * forward to them. Sized deletes are defined too, as -Wall asks.
 */
#include "graphport/support/allochook.hpp"

#include <cstdlib>
#include <new>

namespace {

thread_local graphport::support::AllocCounts g_counts;

} // namespace

namespace graphport {
namespace support {

bool
allocCountingActive()
{
    return true;
}

void
resetThreadAllocCounts()
{
    g_counts = AllocCounts{};
}

AllocCounts
threadAllocCounts()
{
    return g_counts;
}

} // namespace support
} // namespace graphport

void *
operator new(std::size_t size)
{
    ++g_counts.allocs;
    g_counts.bytes += size;
    if (void *p = std::malloc(size != 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    ++g_counts.allocs;
    g_counts.bytes += size;
    void *p = nullptr;
    const std::size_t a = static_cast<std::size_t>(align);
    if (posix_memalign(&p, a < sizeof(void *) ? sizeof(void *) : a,
                       size != 0 ? size : 1) == 0)
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    if (p == nullptr)
        return;
    ++g_counts.frees;
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    operator delete(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    operator delete(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    operator delete(p);
}
