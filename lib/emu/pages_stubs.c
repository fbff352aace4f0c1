/* Zeroed byte blocks whose pages the OS fills on first touch (see
   [Pages.zeroed]).  Guest RAM, the shadow planes and ftrace's planes are
   megabytes of which a booted firmware writes a few pages; clearing them
   with memset would fault in (or, for recycled heap memory, rewrite)
   every page up front.

   On Linux, private anonymous memory reads back as zero pages after
   madvise(MADV_DONTNEED), so only the block's unaligned head and tail are
   cleared by hand.  Below the floor, malloc hands out recycled heap memory
   that is already resident, and clearing it is cheaper than faulting it
   in again; off Linux, or when madvise fails, memset clears everything. */

#include <string.h>
#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

#ifdef __linux__
#include <sys/mman.h>
#include <unistd.h>
#endif

#define ZERO_ON_DEMAND_FLOOR (128 * 1024)

CAMLprim value embsan_pages_zeroed(value vlen)
{
  mlsize_t len = Long_val(vlen);
  value s = caml_alloc_string(len);
  unsigned char *p = Bytes_val(s);
#if defined(__linux__) && defined(MADV_DONTNEED)
  if (len >= ZERO_ON_DEMAND_FLOOR) {
    uintptr_t page = (uintptr_t)sysconf(_SC_PAGESIZE);
    uintptr_t start = (uintptr_t)p, end = start + len;
    uintptr_t lo = (start + page - 1) & ~(page - 1);
    uintptr_t hi = end & ~(page - 1);
    if (hi > lo && madvise((void *)lo, hi - lo, MADV_DONTNEED) == 0) {
      memset(p, 0, lo - start);
      memset((void *)hi, 0, end - hi);
      return s;
    }
  }
#endif
  memset(p, 0, len);
  return s;
}
