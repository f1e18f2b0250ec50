/* Monotonic nanosecond clock for the benchmark's spans.  Unboxed and
   noalloc, so reading it neither allocates nor perturbs the minor-heap
   counters the spans record. */
#include <stdint.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

int64_t perfbench_now_ns(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec;
}

value perfbench_now_ns_byte(value unit)
{
  return caml_copy_int64(perfbench_now_ns(unit));
}

/* CPU time of the calling thread: excludes time the host steals from
   this VM's vCPUs, which the monotonic clock counts. */
int64_t perfbench_thread_cpu_ns(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec;
}

value perfbench_thread_cpu_ns_byte(value unit)
{
  return caml_copy_int64(perfbench_thread_cpu_ns(unit));
}
