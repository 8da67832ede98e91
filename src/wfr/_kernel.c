/* Native kernel of the wfr engine: filter build and scan (k = 1..4).
 *
 * Mirrors the pure-Python loops in engine.py step for step, so positions
 * and all four counters are identical between the two backends. The filter
 * is a packed bitset: bit v is tbl[v >> 3] & (1 << (v & 7)). Hash
 * arithmetic is unsigned 64-bit; with alpha <= 30 and shift_s <= 2 no
 * intermediate value overflows. Built by engine.py with
 * cc -O2 -shared -fPIC.
 */
#include <stdint.h>

#define HAS(tbl, v) ((tbl)[(v) >> 3] & (1u << ((v) & 7)))

/* Set the bit of every factor of x[0..m) of length at most L. A hash depends
 * only on the first L = ceil(alpha / s) bytes of a factor, and that prefix
 * is itself a factor, so longer factors set no new bit. */
void wfr_build(const uint8_t *x, int64_t m, uint8_t *tbl, int s, uint64_t mask, int64_t L)
{
    for (int64_t i = m - 1; i >= 0; i--) {
        int64_t lo = i - L + 1 > 0 ? i - L + 1 : 0;
        uint64_t v = 0;
        for (int64_t j = i; j >= lo; j--) {
            v = ((v << s) + x[j]) & mask;
            tbl[v >> 3] |= (uint8_t)(1u << (v & 7));
        }
    }
}

/* Scan windows of y[0..n) ending at st[0] and onwards. st holds, in order,
 * the next window end j and the running verification, attempt, shift and
 * comparison counters; the scan updates them in place. Writes at most cap
 * occurrence positions, each plus base (the offset of y[0] in the whole
 * text), to pos and returns how many it wrote. The scan of y is finished
 * when st[0] >= n; otherwise the caller drains pos and calls again. */
int64_t wfr_scan(const uint8_t *x, int64_t m, const uint8_t *y, int64_t n,
                 const uint8_t *tbl, int s, uint64_t mask, int k,
                 int64_t *pos, int64_t cap, int64_t *st, int64_t base)
{
    int64_t j = st[0], ver = st[1], att = st[2], shift = st[3], cmp = st[4];
    int64_t found = 0;
    while (j < n && found < cap) {
        att++;
        int64_t i = j - m + 1, cursor;
        uint64_t v;
        int probe;
        if (k == 1) {
            cursor = j;
            v = y[j];
            while (cursor > i && HAS(tbl, v)) {
                cursor--;
                v = ((v << s) + y[cursor]) & mask;
            }
            probe = cursor == i && HAS(tbl, v);
        } else {
            /* Fold up to k characters, probe once; verify when the window is used up. */
            cursor = j + 1;
            v = 0;
            for (;;) {
                int64_t stop = cursor - k;
                if (stop < i)
                    stop = i;
                while (cursor > stop) {
                    cursor--;
                    v = ((v << s) + y[cursor]) & mask;
                }
                probe = HAS(tbl, v) != 0;
                if (!probe || cursor == i)
                    break;
            }
        }
        if (probe) {
            int64_t t = 0;
            ver++;
            while (t < m && x[t] == y[i + t])
                t++;
            cmp += t == m ? t : t + 1;
            if (t == m)
                pos[found++] = i + base;
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
