/* setrlimit and parent-death bindings for the worker pool: OCaml's Unix
   library exposes neither, and the whole point of process-isolated
   runners is that the OS enforces the caps the watchdog can only
   approximate. Applied in the worker child between fork and exec (both
   survive execve). */

#include <caml/mlvalues.h>
#include <caml/memory.h>

#include <sys/resource.h>
#include <sys/time.h>

#ifdef __linux__
#include <signal.h>
#include <sys/prctl.h>
#endif

/* Cap the worker's address space (RLIMIT_AS) at [mb] MiB: a runaway
   allocation fails with Out_of_memory (or the process dies) instead of
   taking the host down. Returns whether setrlimit succeeded. */
CAMLprim value rb_procpool_set_mem_limit_mb(value mb)
{
  CAMLparam1(mb);
  struct rlimit rl;
  rl.rlim_cur = (rlim_t)Long_val(mb) * 1024 * 1024;
  rl.rlim_max = rl.rlim_cur;
  CAMLreturn(Val_bool(setrlimit(RLIMIT_AS, &rl) == 0));
}

/* Cap the worker's CPU seconds (RLIMIT_CPU): a busy-spinning runner the
   cooperative cancel cannot reach is killed by the kernel (SIGXCPU/SIGKILL)
   even if the supervisor itself is wedged. Per job attempt — workers are
   recycled after each job, so the budget never accumulates across jobs. */
CAMLprim value rb_procpool_set_cpu_limit_s(value secs)
{
  CAMLparam1(secs);
  struct rlimit rl;
  rl.rlim_cur = (rlim_t)Long_val(secs);
  rl.rlim_max = rl.rlim_cur + 5; /* hard limit slack: SIGXCPU first, then SIGKILL */
  CAMLreturn(Val_bool(setrlimit(RLIMIT_CPU, &rl) == 0));
}

/* Linux: have the kernel SIGKILL this process when its parent dies. Set
   in the worker child before exec (it survives execve of a non-setuid
   binary), so a worker never outlives a kill -9'd server. Returns whether
   prctl succeeded; elsewhere it is a no-op returning false. */
CAMLprim value rb_procpool_set_pdeathsig(value unit)
{
  CAMLparam1(unit);
#ifdef __linux__
  CAMLreturn(Val_bool(prctl(PR_SET_PDEATHSIG, SIGKILL) == 0));
#else
  CAMLreturn(Val_false);
#endif
}
