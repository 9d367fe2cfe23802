/* getrusage(2) for peak resident memory, which the OCaml Unix library
   does not expose. */

#include <sys/resource.h>
#include <caml/mlvalues.h>

/* Peak resident set size in KiB of the calling process ([children] =
   false) or of its largest waited-for descendant ([children] = true). */
value symbench_maxrss_kb(value children)
{
  struct rusage ru;
  if (getrusage(Bool_val(children) ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru) != 0)
    return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
