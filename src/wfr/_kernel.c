/* Native kernel of the wfr engine: filter build and scan (k = 1..4).
 *
 * Runs the algorithm of the pure-Python scan loop in engine.py and gives
 * the same probe outcomes, positions and all four counters, but skips k = 1
 * probes whose outcome it already knows. A hash depends only on the first
 * L = ceil(alpha / s) bytes of its suffix, so a probe at cursor c in a
 * window ending at j, with c <= j - L + 1, has an outcome fixed by c alone.
 * After a verified window [i, j] every probe in [i, j - L + 1] is known to
 * pass, and the next window, which starts at i + 1, need not probe them
 * again. The counters, and the inspected bytes derived from them, remain
 * the algorithm's logical counts: no counter counts probes, and a
 * verification counts byte comparisons even where it compares a word at a
 * time.
 *
 * As in engine.py, one loop serves every k: k = 1 is the chained loop with
 * one character per probe. The filter is a packed bitset: bit v is
 * tbl[v >> 3] & (1 << (v & 7)). Hash arithmetic is unsigned 64-bit; with
 * alpha <= 30 and shift_s <= 2 no intermediate value overflows. Built by
 * engine.py with cc -O2 -shared -fPIC.
 */
#include <stdint.h>
#include <string.h>

#define HAS(tbl, v) ((tbl)[(v) >> 3] & (1u << ((v) & 7)))

/* The hash horizon L = ceil(alpha / s), from mask = 2**alpha - 1: a hash
 * depends only on the first L bytes of the sequence it hashes. */
static inline int64_t horizon(int s, uint64_t mask)
{
    return (__builtin_popcountll(mask) + s - 1) / s;
}

/* Set the bit of every factor of x[0..m) of length at most L. A hash depends
 * only on the first L bytes of a factor, and that prefix is itself a factor,
 * so longer factors set no new bit. */
void wfr_build(const uint8_t *x, int64_t m, uint8_t *tbl, int s, uint64_t mask)
{
    const int64_t L = horizon(s, mask);
    for (int64_t i = m - 1; i >= 0; i--) {
        int64_t lo = i - L + 1 > 0 ? i - L + 1 : 0;
        uint64_t v = 0;
        for (int64_t j = i; j >= lo; j--) {
            v = ((v << s) + x[j]) & mask;
            tbl[v >> 3] |= (uint8_t)(1u << (v & 7));
        }
    }
}

/* The scan loop for one k: fold up to k characters into the suffix hash
 * (fewer at the window's left end), probe the filter, and repeat until a
 * probe fails or the window is used up; verify when the probe at the window
 * start passes. k = 1 probes after every character.
 *
 * For k = 1, every probe in [i, hi] is known to pass whenever hi >= i (see
 * the header), so the attempt scans down to lim = hi + 1 only, and a pass
 * there means the whole window passes. An attempt that fails stops at or
 * above lim, so the next window starts past hi. With k > 1 the probe
 * positions of consecutive windows do not line up, and lim is i. The memo
 * is local to one call: a scan resumed from st starts with none. Either
 * way lim <= j, so cursor > lim on entry to every fold, and a fold takes
 * at least one character.
 *
 * The verification compares a word at a time up to the first unequal word
 * and then byte by byte, so t, the length of the match, and the comparison
 * counter are those of a byte loop; every word lies in y[i..j].
 *
 * The loop tests only j < end, and end drops to 0 when pos fills, which
 * stops the scan after that attempt. Testing found < cap on every attempt
 * as well kept one more value live in the attempt loop: the dna-short
 * benchmark workload's query_ms_p50 then rose 4.9% over the kernel without
 * the probe memo, against 1.3% with end (10 and 4 alternating runs, 2-vCPU
 * Xeon VM).
 *
 * always_inline, so that each case of the switch in wfr_scan gets its own
 * copy with k a constant, in which the k = 1 fold is a single step: with
 * plain inline, gcc 12 -O2 emits one generic copy and calls it from every
 * case, and with k read at run time the k = 1 scan took 1.2 times as long
 * on the dna-short benchmark workload and 1.7 times on zero-runs (2-vCPU
 * Xeon VM). */
static inline __attribute__((always_inline)) int64_t
scan_k(const uint8_t *x, int64_t m, const uint8_t *y, int64_t n,
       const uint8_t *tbl, int s, uint64_t mask, const int k,
       int64_t *pos, int64_t cap, int64_t *st, int64_t base)
{
    const int64_t L = horizon(s, mask);
    int64_t j = st[0], ver = st[1], att = st[2], shift = st[3], cmp = st[4];
    int64_t found = 0, hi = -1;
    int64_t end = cap > 0 ? n : 0; /* 0 once pos is full */
    while (j < end) {
        att++;
        int64_t i = j - m + 1, cursor = j + 1;
        int64_t lim = k == 1 && hi >= i ? hi + 1 : i;
        uint64_t v = 0;
        do {
            int64_t stop = cursor - k > lim ? cursor - k : lim;
            do {
                cursor--;
                v = ((v << s) + y[cursor]) & mask;
            } while (cursor > stop);
        } while (cursor > lim && HAS(tbl, v));
        if (cursor == lim && HAS(tbl, v)) {
            int64_t t = 0;
            cursor = i;
            hi = j - L + 1;
            ver++;
            while (t + 8 <= m) {
                uint64_t a, b;
                memcpy(&a, x + t, 8);
                memcpy(&b, y + i + t, 8);
                if (a != b)
                    break;
                t += 8;
            }
            while (t < m && x[t] == y[i + t])
                t++;
            cmp += t == m ? t : t + 1;
            if (t == m) {
                pos[found++] = i + base;
                if (found == cap)
                    end = 0;
            }
        }
        j = cursor + m;
        shift += cursor + 1 - i;
    }
    st[0] = j;
    st[1] = ver;
    st[2] = att;
    st[3] = shift;
    st[4] = cmp;
    return found;
}

/* The scan contract that every scan of the engine follows: this kernel,
 * and in Python its reference scan and the naive and Horspool baselines,
 * all called by one driver, engine.Matcher.stream, with one pos buffer per
 * search. Scan windows of y[0..n) ending at st[0] and onwards. st holds, in
 * order, the next window end j and the running verification, attempt, shift
 * and comparison counters; the scan updates them in place. Writes at most
 * cap occurrence positions, each plus base (the offset of y[0] in the whole
 * text), to pos and returns how many it wrote. The scan of y is finished
 * when st[0] >= n; otherwise the caller drains pos and calls again. k is in
 * [1, 4]; the caller checks it. */
int64_t wfr_scan(const uint8_t *x, int64_t m, const uint8_t *y, int64_t n,
                 const uint8_t *tbl, int s, uint64_t mask, int k,
                 int64_t *pos, int64_t cap, int64_t *st, int64_t base)
{
    switch (k) {
    case 1:
        return scan_k(x, m, y, n, tbl, s, mask, 1, pos, cap, st, base);
    case 2:
        return scan_k(x, m, y, n, tbl, s, mask, 2, pos, cap, st, base);
    case 3:
        return scan_k(x, m, y, n, tbl, s, mask, 3, pos, cap, st, base);
    default:
        return scan_k(x, m, y, n, tbl, s, mask, 4, pos, cap, st, base);
    }
}
