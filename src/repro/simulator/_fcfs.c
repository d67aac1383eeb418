/* First-free, type-ordered FCFS dispatch (paper Sec. 5.1) over one trace.
 *
 * Each query goes to the lowest-index instance that is free at its arrival;
 * if none is, it starts on the earliest-free instance (lowest index on
 * ties) when that instance frees up.  Instances are laid out in type order,
 * so the lowest free index is the type-order preference.  Every double is
 * produced by the same IEEE operations, in the same order, as the Python
 * fallback in engine.py; the loader builds this file without fast-math or
 * FP contraction so the two stay bit-identical.  The caller validates
 * shapes, dtypes and type indices; matrix is (n_fam, n) row-major.
 * queue_len may be NULL (queue tracking off).  Returns the makespan.
 */
#include <stdint.h>

double fcfs_dispatch(int64_t n, int64_t m, const double *arrivals,
                     const double *matrix, const int64_t *type_of_instance,
                     double *free_at, double *busy, double *start,
                     double *service, double *wait, double *latency,
                     int64_t *chosen, int64_t *queue_len)
{
    int64_t q, i, started = 0;
    double makespan = 0.0;

    for (i = 0; i < m; i++) {
        free_at[i] = 0.0;
        busy[i] = 0.0;
    }
    for (q = 0; q < n; q++) {
        double t = arrivals[q], best_free = free_at[0], begin, s;
        int64_t best = 0;
        int found = best_free <= t;

        for (i = 1; !found && i < m; i++) {
            if (free_at[i] <= t) {
                best = i;
                found = 1;
            } else if (free_at[i] < best_free) {
                best = i;
                best_free = free_at[i];
            }
        }
        begin = found ? t : best_free;
        s = matrix[type_of_instance[best] * n + q];
        free_at[best] = begin + s;
        busy[best] += s;
        start[q] = begin;
        service[q] = s;
        wait[q] = begin - t;
        latency[q] = wait[q] + s;
        chosen[q] = best;
        if (queue_len) {
            /* FCFS starts are monotone: one pointer counts the earlier
             * queries that have started by this arrival. */
            while (started < q && start[started] <= t)
                started++;
            queue_len[q] = q - started;
        }
    }
    if (n > 0)
        for (i = 0; i < m; i++)
            if (i == 0 || free_at[i] > makespan)
                makespan = free_at[i];
    return makespan;
}
