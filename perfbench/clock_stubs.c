/* Monotonic clock with nanosecond resolution for the benchmark client
   (Unix.gettimeofday resolves only microseconds). */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

CAMLprim value perfbench_monotonic_s(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
