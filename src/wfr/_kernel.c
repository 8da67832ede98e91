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
 * Runs of one byte value are the worst case made common: the shift-add hash
 * of 0^r is 0 at every length r, so a pattern that holds a zero byte passes
 * every probe of every window inside a run of zeros, as in the zero padding
 * of binary files, and each such window is verified and shifts by 1. If a
 * verified window [i, j] holds one byte value b alone, every later window
 * that ends inside the same run of b holds the same bytes and repeats that
 * attempt exactly, for every k and either filter layout: every probe
 * passes, the verification matches the same t bytes, and the shift is 1.
 * run_skip finds the run's end a word at a time and adds those windows to
 * the counters, and their positions when t = m, in O(1) each (see scan).
 * The three copies of the scan without the branch-free entry apply this
 * rule; the two entry copies scan such runs window by window. Searches of
 * 1 MiB through engine.py, without the rule -> with it, against a loop of
 * bytes.find: 0^31 x in zeros 11.4 -> 0.058 ms (find 3.15 ms); a^8 in a's,
 * with 2**20 - 7 positions, 28.6 -> 21.4 ms (find 148 ms), most of it now
 * the Python ints of the positions (medians of 15, 2-vCPU Xeon VM).
 * Periodic text with a period of 2 or more, such as (ab)^16 in (ab)^n,
 * stays quadratic.
 *
 * The k = 1 scan also has a branch-free entry. It tests the probes at j,
 * j - 1 and j - 2 of a window at once and branches only on "all three
 * pass". Where an attempt stops at its 2nd or 3rd probe about equally
 * often, as for short patterns on small alphabets, the loop's exit branch
 * is mispredicted on a large share of attempts, and the entry saves that
 * cost. Where the first probes are predictable it costs more than it
 * saves, so wfr_scan chooses per call, from what it observes of the
 * pattern and the text, whether the scan takes it. Either way every probe
 * has the same outcome.
 *
 * As in engine.py, one loop serves every k: k = 1 is the chained loop with
 * one character per probe. scan_copy inlines that loop five times (scan_k
 * gives the measurements behind each copy):
 * - four copies for k = 1, with k constant: run-time k made the k = 1 scan
 *   1.2 times slower on the dna-short benchmark workload and 1.7 times on
 *   zero-runs. They are the loop and the branch-free entry, each with and
 *   without the hashed set, whose test is constant: a run-time test cost
 *   dna-short about 20%.
 * - one copy for k = 2..4 that reads k and the set test at run time: on
 *   text-long, k = 4 queries took as long as with six constant copies
 *   (+0.5% at m = 256, -0.6% at m = 1024), and .text is 5150 bytes, not
 *   7886.
 * A call with at least SPLIT_MIN_WINDOWS windows scans on two threads where
 * two CPUs are usable (see split). The next window end is a function of the
 * window end alone, so a helper thread can start its own sequence of window
 * ends (an orbit) at the midpoint, and the calling thread, once its window
 * end equals one of the helper's, takes the helper's state and adds its
 * counters and positions since then. Positions and counters are those of
 * one thread. Where such a call takes the entry without the hashed set,
 * each thread scans each range it would scan alone on two orbits, and joins
 * them the same way (see scan_two): the k = 1 entry waits about 20 cycles
 * on a chain of loads and hash steps from one window end to the next, and
 * two orbits in one loop overlap their chains. On one usable CPU such a
 * call scans its whole range on two orbits.
 *
 * Hash arithmetic is unsigned 64-bit; with alpha <= 30 and shift_s <= 2 no
 * intermediate value overflows. Built by engine.py with cc -O2 -pthread
 * -shared -fPIC.
 *
 * The filter has two parts, sized by the pattern (engine._layout decides the
 * sizes; engine.py builds the same bytes when no kernel is loaded):
 * - the direct part tbl, a packed bitset of the hash values below 2**D:
 *   bit v is tbl[v >> 3] & (1 << (v & 7));
 * - the hashed part set, an exact open-addressed set of the values at or
 *   above 2**D in `slots` uint32 slots: a power of two at least 2 m L, so
 *   at most half the slots are used and every probe chain ends at an
 *   EMPTY slot. A value's home slot is the top log2(slots) bits of
 *   (uint32_t)v * HASH_MUL, and linear probing goes on from there.
 * D is DIRECT_BITS when the set exists (slots > 0). It is alpha when the
 * set does not exist: for alpha <= DIRECT_BITS, and where the two parts
 * would take no less memory than the 2**(alpha-3)-byte bitset of all
 * values. A value is in the filter iff it is in its part, so every probe
 * has the outcome a 2**alpha-bit bitset would give.
 * The k = 1 entry and entry_pays read tbl alone, which holds every value
 * they probe: their probes hash at most 3 bytes, so each value is below
 * 2**14 < 2**DIRECT_BITS and below 2**alpha. */
#define _GNU_SOURCE /* sched_getaffinity */
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define HAS(tbl, v) ((tbl)[(v) >> 3] & (1u << ((v) & 7)))
#define BIT(tbl, v) ((tbl)[(v) >> 3] >> ((v) & 7) & 1)

#define DIRECT_BITS 16
#define EMPTY 0xFFFFFFFFu
#define HASH_MUL 0x9E3779B1u /* 2**32 / golden ratio, odd */

/* The shift that takes the top log2(slots) bits of a 32-bit product. */
static inline int slot_shift(int64_t slots)
{
    return 32 - __builtin_ctzll(slots);
}

/* The slot of v in the set, or the EMPTY slot where its probe stops: linear
 * probing from its home slot. last is slots - 1 and sh slot_shift(slots).
 * Every value is below 2**alpha <= 2**30, so none equals EMPTY. */
static inline uint32_t find_slot(const uint32_t *set, uint32_t last, int sh, uint64_t v)
{
    uint32_t h = (uint32_t)v * HASH_MUL >> sh;
    while (set[h] != v && set[h] != EMPTY)
        h = (h + 1) & last;
    return h;
}

/* Whether v is in the filter; hashed says whether the set exists. */
static inline __attribute__((always_inline)) int
has(const uint8_t *tbl, const uint32_t *set, uint32_t last, int sh, const int hashed, uint64_t v)
{
    if (!hashed || v < (1u << DIRECT_BITS))
        return HAS(tbl, v) != 0;
    return set[find_slot(set, last, sh, v)] == v;
}

/* The hash horizon L = ceil(alpha / s), from mask = 2**alpha - 1: a hash
 * depends only on the first L bytes of the sequence it hashes. */
static inline int64_t horizon(int s, uint64_t mask)
{
    return (__builtin_popcountll(mask) + s - 1) / s;
}

/* Put the hash of every factor of x[0..m) of length at most L in the
 * filter: tbl comes zeroed, and set, of `slots` slots (0 when there is
 * none), with every slot EMPTY. A hash depends only on the first L bytes
 * of a factor, and that prefix is itself a factor, so longer factors add
 * no value. The set's bytes depend on the order of the inserts, and
 * engine.py inserts in this same order. */
static void build(const uint8_t *x, int64_t m, uint8_t *tbl, uint32_t *set, int64_t slots,
                  int s, int alpha)
{
    const uint64_t mask = ((uint64_t)1 << alpha) - 1;
    const int64_t L = horizon(s, mask);
    const uint32_t last = (uint32_t)(slots - 1);
    const int sh = slots ? slot_shift(slots) : 0;
    for (int64_t i = m - 1; i >= 0; i--) {
        int64_t lo = i - L + 1 > 0 ? i - L + 1 : 0;
        uint64_t v = 0;
        for (int64_t j = i; j >= lo; j--) {
            v = ((v << s) + x[j]) & mask;
            if (!slots || v < (1u << DIRECT_BITS))
                tbl[v >> 3] |= (uint8_t)(1u << (v & 7));
            else
                set[find_slot(set, last, sh, v)] = (uint32_t)v;
        }
    }
}

/* build for a filter with a set, and for one without, which takes two
 * arguments fewer: ctypes converts each argument on every call, and the
 * two made a preprocess of an 8-byte pattern at alpha = 16 take 0.25 us
 * more, against 2.7 us (best of 8 alternating runs, 2-vCPU Xeon VM). */
void wfr_build_hashed(const uint8_t *x, int64_t m, uint8_t *tbl, uint32_t *set, int64_t slots,
                      int s, int alpha)
{
    build(x, m, tbl, set, slots, s, alpha);
}

void wfr_build(const uint8_t *x, int64_t m, uint8_t *tbl, int s, int alpha)
{
    build(x, m, tbl, 0, 0, s, alpha);
}

/* The branch-free entry of a k = 1 attempt at window end j (see scan_k):
 * the hashes of the probes at j, j - 1 and j - 2 and their three table bits,
 * loaded with no branch between the loads. pN is 1 when the Nth probe
 * passes; pass is 1 when all three pass, and otherwise stop = j - p1 - (p1 &
 * p2) is where the first failing probe stands and the attempt ends. v3 is
 * the hash of y[j - 2..j]. Reads y[j - 2..j]. scan_k and next_end make
 * every entry attempt here: written with a branch inside, or with pointers
 * out, it changed gcc 12's block layout of scan_copy's copies. */
struct entry {
    int64_t pass, stop;
    uint64_t v3;
};

static inline __attribute__((always_inline)) struct entry
entry_probes(const uint8_t *y, const uint8_t *tbl, int s, uint64_t mask, int64_t j)
{
    uint64_t v1 = y[j] & mask;
    uint64_t v2 = ((v1 << s) + y[j - 1]) & mask;
    uint64_t v3 = ((v2 << s) + y[j - 2]) & mask;
    int64_t p1 = BIT(tbl, v1), p2 = BIT(tbl, v2), p3 = BIT(tbl, v3);
    return (struct entry){p1 & p2 & p3, j - p1 - (p1 & p2), v3};
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
 * With entry set (k = 1 only), an attempt first computes the hashes of
 * the probes at j, j - 1 and j - 2 and loads their three table bits, with
 * no branch between the loads. pN is 1 when the Nth probe passes, so
 * cursor = j - p1 - (p1 & p2) is where the first failing probe stands, and
 * the attempt ends there as the loop would end it. Only "all three pass"
 * branches, into the loop at cursor j - 2. The entry runs only when
 * j - 2 > lim, so it never reaches the window start or a probe the memo
 * knows, and it reads only y[i..j]. (With m >= 4 this always holds: i <=
 * j - 3, and hi + 1 <= j - L + 1 <= j - 3 since L >= 4.) No probe changes
 * its outcome, so positions and counters are those of the loop. The loop
 * pays a mispredicted exit branch on many attempts when the first probes
 * pass or fail about equally often: for m = 8 on 4 symbols, as on the
 * dna-short workload, 0.94, 0.41 and 0.09 of the attempts passed their 1st,
 * 2nd and 3rd probe (8 patterns, 256 KiB). Where the exit is predictable
 * the entry costs more than it saves: see ENTRY_MISS_SHARE.
 *
 * The verification compares a word at a time up to the first unequal word
 * and then byte by byte, so t, the length of the match, and the comparison
 * counter are those of a byte loop; every word lies in y[i..j].
 *
 * The loop tests only j < end, and end drops to 0 when pos fills, which
 * stops the scan after that attempt. Without the entry, it also drops to 0
 * after a verified window whose bytes at i, j and j + 1 are equal, where a
 * run of one byte value may start (see run_skip). Testing found < cap on
 * every attempt as well kept one more value live in the attempt loop: the
 * dna-short benchmark workload's query_ms_p50 then rose 4.9% over the
 * kernel without the probe memo, against 1.3% with end (10 and 4
 * alternating runs, 2-vCPU Xeon VM).
 *
 * With hashed set (the filter has a set), a probe of a value at or above
 * 2**DIRECT_BITS searches the set; without it every probe reads tbl alone.
 * The four k = 1 copies take hashed as a constant, because a run-time test
 * of the set in one shared k = 1 copy cost the dna-short benchmark workload
 * about 20% in a prototype. The k = 2..4 copy tests it at run time (see
 * below).
 *
 * always_inline, so that scan_copy's five calls give five copies. In the
 * four k = 1 copies k, entry and hashed are constants and the k = 1 fold is
 * a single step: with plain inline, gcc 12 -O2 emits one generic copy and
 * calls it from every call site, and with k read at run time the k = 1 scan
 * took 1.2 times as long on the dna-short benchmark workload and 1.7 times
 * on zero-runs (2-vCPU Xeon VM). The k = 2..4 copy reads k and hashed at
 * run time, which costs nothing measurable there: against six copies with
 * both constant, the text-long benchmark workload's k = 4 queries (alpha =
 * 24, so with a set) took 86.9 against 86.4 us at m = 256 and 118.1 against
 * 118.9 us at m = 1024 (medians of 10 alternating perfbench pairs, 2-vCPU
 * Xeon VM), and the library's .text shrank from 7886 to 5150 bytes (gcc
 * 12.2 -O2). */
static inline __attribute__((always_inline)) int64_t
scan_k(const uint8_t *x, int64_t m, const uint8_t *y, int64_t n,
       const uint8_t *tbl, const uint32_t *set, int64_t slots, int s, uint64_t mask,
       const int k, const int entry, const int hashed,
       int64_t *pos, int64_t cap, int64_t *st, int64_t base)
{
    const int64_t L = horizon(s, mask);
    const uint32_t last = (uint32_t)(slots - 1);
    const int sh = hashed ? slot_shift(slots) : 0;
    int64_t j = st[0], ver = st[1], att = st[2], shift = st[3], cmp = st[4];
    int64_t found = 0, hi = -1;
    int64_t end = cap > 0 ? n : 0; /* 0 once pos is full */
    while (j < end) {
        att++;
        int64_t i = j - m + 1, cursor = j + 1;
        int64_t lim = k == 1 && hi >= i ? hi + 1 : i;
        uint64_t v = 0;
        if (entry && j - 2 > lim) {
            struct entry e = entry_probes(y, tbl, s, mask, j);
            if (!e.pass) {
                cursor = e.stop;
                j = cursor + m;
                shift += cursor + 1 - i;
                continue;
            }
            cursor = j - 2;
            v = e.v3;
        }
        do {
            int64_t stop = cursor - k > lim ? cursor - k : lim;
            do {
                cursor--;
                v = ((v << s) + y[cursor]) & mask;
            } while (cursor > stop);
        } while (cursor > lim && has(tbl, set, last, sh, hashed, v));
        if (cursor == lim && has(tbl, set, last, sh, hashed, v)) {
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
            if (!entry && j + 1 < n && y[j] == y[i] && y[j + 1] == y[i])
                end = 0; /* perhaps a run of y[i]: scan hands it to run_skip */
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

/* When a k = 1 call takes the branch-free entry (see scan_k): when
 * ENTRY_M_MIN <= m <= ENTRY_M_MAX and entry_pays. Both are needed. The
 * bounds on m alone would take the entry where the first probe fails
 * predictably: taken on every call, it slowed m = 8 scans of 1 MiB from
 * 0.89-0.91 to 1.35-1.41 ms on 64 symbols and from 0.58-0.64 to 1.34-1.39
 * ms on 256 (3 alternating runs each). The sample alone would take it on
 * the text-long benchmark workload (m = 256 and 1024 on 64 symbols at
 * shift_s = 2, where 2-byte hashes collide and the second probe passes
 * about half the time), whose query_ms_p95 then rose from 0.49-0.54 to
 * 0.62-0.73 ms and query_ms_p50 from 0.21-0.23 to 0.22-0.25 ms (5
 * alternating perfbench pairs). Times are from a 2-vCPU Xeon VM.
 *
 * ENTRY_M_MIN: below it the probe at j - 2 is at or left of the window
 * start, whose probe the loop's verify test makes, so the entry never runs.
 * ENTRY_M_MAX: stands in for table loads that miss the cache. A predicted
 * exit branch lets the next window's loads start while a probe's load is
 * still out, and the entry makes the next window end wait for its three
 * loads. Timed in turn in one library, each search building its filter
 * afresh as text-long's queries do, the entry took 1.22-1.26 times the
 * loop's time at m = 256 on 64 symbols with a 2 MiB table (alpha = 24), but
 * 0.86-0.95 times with an 8 KiB one (alpha = 16), 0.80-0.93 times at m = 32
 * and 64 on 64 symbols with the 2 MiB one, and 0.79-0.86 times at m = 8 on
 * 4 symbols, whose probes stay in a few lines of it.
 * ENTRY_SAMPLE: at a share of 0.3 one binomial standard deviation over 256
 * window ends is 0.03. The sample took 1.1-1.8 us a call on 4, 64 and 256
 * symbols, 0.2% of an m = 8 scan of 1 MiB on 64 symbols.
 * ENTRY_MISS_SHARE: the ratio of the entry's time to the loop's, per
 * pattern, with both copies in one library timed in turn on 1 MiB, was
 * 0.96-1.52 for shares below 0.2 (1.35-1.52 on 64 and 256 symbols),
 * 0.87-1.15 from 0.2 to 0.3, 0.93-1.04 from 0.3 to 0.35 and 0.64-0.98
 * above (114 patterns, sigma 2 to 256, m 4 to 64). */
#define ENTRY_M_MIN 4
#define ENTRY_M_MAX 64
#define ENTRY_SAMPLE 256
#define ENTRY_MISS_SHARE 0.3

/* Whether a predictor that guesses, for each of the first three k = 1
 * probes, the outcome that most of the windows reaching it have would miss
 * on at least ENTRY_MISS_SHARE of the window ends j0, j0 + 1, ... (up to
 * ENTRY_SAMPLE of them, all < n). A window's probes stop at the first that
 * fails, so the guesses amount to one guessed stop, after d passes, and the
 * predictor misses every window that stops elsewhere. Like the entry, the
 * sample loads the three bits with no branch; it reads y[j0 - 2 ..], and
 * j0 >= m - 1 >= 3. */
static int entry_pays(const uint8_t *y, int64_t n, const uint8_t *tbl, int s,
                      uint64_t mask, int64_t j0)
{
    int64_t end = n - j0 < ENTRY_SAMPLE ? n : j0 + ENTRY_SAMPLE;
    int64_t reach[5] = {end - j0, 0, 0, 0, 0}; /* windows whose first d probes pass */
    for (int64_t j = j0; j < end; j++) {
        uint64_t v1 = y[j] & mask;
        uint64_t v2 = ((v1 << s) + y[j - 1]) & mask;
        uint64_t v3 = ((v2 << s) + y[j - 2]) & mask;
        int p1 = BIT(tbl, v1), p12 = p1 & BIT(tbl, v2);
        reach[1] += p1;
        reach[2] += p12;
        reach[3] += p12 & BIT(tbl, v3);
    }
    int d = 0;
    while (d < 3 && 2 * reach[d + 1] > reach[d]) /* most of those reaching probe d + 1 pass it */
        d++;
    return reach[0] - (reach[d] - reach[d + 1]) >= ENTRY_MISS_SHARE * (double)reach[0];
}

/* The arguments of one wfr_scan call that all of its scans share. */
struct call {
    const uint8_t *x, *y, *tbl;
    const uint32_t *set;
    int64_t m, slots, base;
    uint64_t mask;
    int s, k, entry;
};

/* The length of the run of byte b at p, at most n: a word at a time. */
static int64_t run_length(const uint8_t *p, uint8_t b, int64_t n)
{
    const uint64_t word = b * 0x0101010101010101u;
    int64_t r = 0;
    while (r + 8 <= n) {
        uint64_t a;
        memcpy(&a, p + r, 8);
        if (a != word)
            break;
        r += 8;
    }
    while (r < n && p[r] == b)
        r++;
    return r;
}

/* The windows of y[0..n) that repeat the verified window before st[0], done
 * in O(1) each (see the header). scan_k has just verified [i, j], i = j - m
 * + 1, and shifted by 1 to st[0] = j + 1, and y[i] = y[j] = y[j + 1] = b.
 * If y[i..j + 1] is one run of b, each of the w windows that end inside
 * that run verifies, matches the same t bytes and shifts by 1: they add w
 * to the verification, attempt and shift counters and w (t == m ? m : t +
 * 1) to the comparisons, and when t == m their positions go to pos, at most
 * cap of them, so that a full pos stops the scan where the window by window
 * scan stops. Returns the positions written; when y[i..j + 1] is not one
 * run, it writes none and leaves st as it is. */
static __attribute__((noinline, cold)) int64_t
run_skip(const struct call *c, int64_t n, int64_t *pos, int64_t cap, int64_t *st)
{
    const int64_t m = c->m, i = st[0] - m;
    const uint8_t b = c->y[i];
    int64_t w = run_length(c->y + i, b, n - i) - m; /* the window ends st[0], ... in the run */
    if (w < 1)
        return 0;
    const int64_t t = run_length(c->x, b, m);
    if (t < m)
        st[4] += w * (t + 1); /* each verification stops at the byte after the match */
    else {
        if (w > cap)
            w = cap; /* pos fills inside the run: the next call resumes there */
        for (int64_t q = 0; q < w; q++)
            pos[q] = i + 1 + q + c->base;
        st[4] += w * m;
    }
    st[0] += w;
    st[1] += w;
    st[2] += w;
    st[3] += w;
    return t < m ? 0 : w;
}

/* Scan the windows of y[0..n) from st[0] with the copy of scan_k that k,
 * the call's entry and the filter's set select: four for k = 1, the loop or
 * the branch-free entry each with or without the set, and one for k = 2..4
 * (scan_k gives the measurements behind each copy). Out of line, so that a
 * split call, its helper and its join share the five copies, and aligned to
 * a cache line, so that the loops' placement does not move with the code
 * before them: unaligned, the m = 4 scan of 1 MiB of zeros took 29.0-29.8
 * ms, against 27.8-28.6 ms with the copies inline in wfr_scan, and aligned
 * 27.9-28.6 ms (interleaved in one process, medians of 15-21 runs, 2-vCPU
 * Xeon VM). The loops' speed still moves with where they land in a line:
 * the zero-runs workload's m = 32 zero-run queries took 5% longer than with
 * the copies inline in wfr_scan, as long as that code took when aligned to
 * 64 bytes itself, and 1% longer with this function started 16 or 32 bytes
 * past a line. */
static __attribute__((noinline, aligned(64))) int64_t
scan_copy(const struct call *c, int64_t n, int64_t *pos, int64_t cap, int64_t *st)
{
    const uint8_t *x = c->x, *y = c->y, *tbl = c->tbl;
    const uint32_t *set = c->set;
    const int64_t m = c->m, slots = c->slots, base = c->base;
    const uint64_t mask = c->mask;
    const int s = c->s, k = c->k;
    if (k == 1) {
        if (c->entry && slots)
            return scan_k(x, m, y, n, tbl, set, slots, s, mask, 1, 1, 1, pos, cap, st, base);
        if (c->entry)
            return scan_k(x, m, y, n, tbl, set, slots, s, mask, 1, 1, 0, pos, cap, st, base);
        if (slots)
            return scan_k(x, m, y, n, tbl, set, slots, s, mask, 1, 0, 1, pos, cap, st, base);
        return scan_k(x, m, y, n, tbl, set, slots, s, mask, 1, 0, 0, pos, cap, st, base);
    }
    return scan_k(x, m, y, n, tbl, set, slots, s, mask, k, 0, slots != 0, pos, cap, st, base);
}

/* Scan the windows of y[0..n) from st[0]: scan_copy, and run_skip wherever
 * it stops after a verified window whose bytes at i, j and j + 1 are equal.
 * The three copies without the branch-free entry stop there. The two entry
 * copies do not: with that stop in them too, the dna-short workload's m = 8
 * and 16 queries, where they run, took 7-9% longer in a prototype, and
 * their code spilled more values to the stack (2-vCPU Xeon VM). scan_copy
 * stops for nothing else before n while pos has room. A skip ends before n,
 * so the scans of a split call, each to its own bound, pass through the
 * window ends of the window by window scan. */
static int64_t scan(const struct call *c, int64_t n, int64_t *pos, int64_t cap, int64_t *st)
{
    int64_t found = scan_copy(c, n, pos, cap, st);
    while (st[0] < n && found < cap) {
        found += run_skip(c, n, pos + found, cap - found, st);
        if (st[0] == n)
            return found; /* the run reaches the end of y */
        found += scan_copy(c, n, pos + found, cap - found, st);
    }
    return found;
}

/* A call with at least SPLIT_MIN_WINDOWS windows, (n - st[0]) / m, scans
 * on two threads (see split); shorter calls stay on one.
 * SPLIT_MIN_WINDOWS: starting and joining the helper costs tens of us. An
 * m = 8 search of 4-symbol text took 57.4 us split against 57.9 us not at
 * 8,192 windows, 81 against 111 us at 16,384 and 150 against 226 us at
 * 32,768 (medians of 31, interleaved). At 2**15 every dna-short library
 * query (m <= 16 on 1 MiB) and every 1 MiB chunk of its CLI run splits, and
 * no text-long (m >= 256 on 1 MiB) or zero-runs (m >= 8 on 128 KiB) call
 * does, nor the m = 64 scans of 1 MiB that test_c6_chained_variant_throughput
 * times (16,384 windows).
 * SPLIT_LEAD: the calling thread first scans 1/SPLIT_LEAD of the range alone
 * and stays alone when its positions there, times SPLIT_LEAD, exceed 2 cap:
 * the first half would then fill pos before the join, and the helper's scan
 * would be wasted. Without that check an m = 8 scan of 1 MiB of zero runs
 * took 30.9-31.1 ms against 21.1-21.4 ms unsplit, and an m = 4 scan of 1 MiB
 * of zeros 41.1-43.8 against 28.0 ms; with it, 21.4-21.6 and 27.9 ms
 * (medians of 11, interleaved).
 * MERGE_PREFIX: the helper records its first attempts one at a time. Over
 * 10 rounds of the dna-short workload, the calling thread met a record
 * within the first 16 in 234 of 315 library splits, within 64 in 68 more,
 * within 128 in 10 and within 256 in the other 3; of the 320 CLI splits
 * (m = 16), 160, 130, 27 and 3. Chained probes (k > 1) meet later or not at
 * all: at m = 8 on 64 symbols, 7 of 8 k = 4 splits met none of 256, and the
 * calling thread scanned on alone. 256 records take 12 KiB. The second of
 * a thread's two orbits records its first attempts the same way: a struct
 * half with cap = 4096 positions takes 44 KiB, and a split call that takes
 * the entry allocates three at a time (the helper's, then one second orbit
 * in each thread), 132 KiB.
 * Times are from a 2-vCPU Xeon VM. */
#define SPLIT_MIN_WINDOWS (1 << 15)
#define SPLIT_LEAD 16
#define MERGE_PREFIX 256

/* A second orbit of a range: the helper's part of a split call, or the
 * second of a thread's two orbits (see scan_two). Its scan of y[0..n) from
 * window end st[0] into pos, which has cap slots. Record t is st before its
 * attempt t, then the positions found before it. */
struct half {
    const struct call *c;
    int64_t n, cap, found, records;
    int64_t st[5];
    int64_t rec[MERGE_PREFIX][6];
    int64_t pos[];
};

/* A struct half for the orbit of window end `start` up to n, with the
 * counters of st; NULL when malloc fails. */
static struct half *new_half(const struct call *c, int64_t n, int64_t cap, const int64_t *st,
                             int64_t start)
{
    struct half *h = malloc(sizeof *h + cap * sizeof *h->pos);
    if (h) {
        h->c = c;
        h->n = n;
        h->cap = cap;
        memcpy(h->st, st, sizeof h->st);
        h->st[0] = start;
    }
    return h;
}

/* h's first MERGE_PREFIX attempts, each a scan of one window end that
 * records the state before it. Returns the positions found. */
static int64_t record(struct half *h)
{
    int64_t found = 0, t = 0;
    for (; t < MERGE_PREFIX && h->st[0] < h->n; t++) {
        memcpy(h->rec[t], h->st, sizeof h->st);
        h->rec[t][5] = found;
        found += scan(h->c, h->st[0] + 1, h->pos + found, h->cap - found, h->st);
    }
    h->records = t;
    return found;
}

/* The CPUs this process may run on, counted once; read atomically, since
 * threads of the caller may scan at once. */
static int usable_cpus(void)
{
    static int cpus;
    int n = __atomic_load_n(&cpus, __ATOMIC_RELAXED);
    if (!n) {
        cpu_set_t mask;
        n = sched_getaffinity(0, sizeof mask, &mask) ? 1 : CPU_COUNT(&mask);
        __atomic_store_n(&cpus, n, __ATOMIC_RELAXED);
    }
    return n;
}

/* The rest of a scan on two orbits once the second, h, has ended: this
 * thread, at or past h's first window end unless pos is full, walks on one
 * scan per record until its window end equals the record's, and there
 * takes h's state, counters and positions. found positions are already in
 * pos. */
static int64_t join(const struct call *c, const struct half *h, int64_t *pos, int64_t cap,
                    int64_t *st, int64_t found)
{
    for (int64_t t = 0; t < h->records; t++) {
        const int64_t *r = h->rec[t];
        found += scan(c, r[0], pos + found, cap - found, st);
        if (st[0] != r[0])
            continue; /* past r[0], or pos is full */
        int64_t more = h->found - r[5];
        if (more > cap - found)
            return found; /* h's positions overflow pos: the next call resumes here */
        for (int i = 1; i < 5; i++)
            st[i] += h->st[i] - r[i];
        st[0] = h->st[0];
        memcpy(pos + found, h->pos + r[5], more * sizeof *pos);
        return found + more;
    }
    return found + scan(c, h->n, pos + found, cap - found, st); /* no join: on alone */
}

/* Bring st to window end j after att attempts made since st[0] without
 * it: each adds 1 to the attempts and moves the window end by its shift
 * (see scan_k). */
static inline void advance(int64_t *st, int64_t j, int64_t att)
{
    st[2] += att;
    st[3] += j - st[0];
    st[0] = j;
}

/* The next window end after the k = 1 attempt at window end j, or j itself
 * when the attempt verifies and is left to scan. The attempt is scan_k's
 * with the entry, no memo and no set: the entry's probes, and where all
 * three pass, the probe loop down to the window start. The entry's probes
 * lie right of the window start, since m >= ENTRY_M_MIN. */
static inline __attribute__((always_inline)) int64_t
next_end(const uint8_t *y, int64_t m, const uint8_t *tbl, int s, uint64_t mask, int64_t j)
{
    struct entry e = entry_probes(y, tbl, s, mask, j);
    if (!e.pass)
        return e.stop + m;
    int64_t i = j - m + 1, cursor = j - 2;
    uint64_t v = e.v3;
    do {
        cursor--;
        v = ((v << s) + y[cursor]) & mask;
    } while (cursor > i && HAS(tbl, v));
    return cursor == i && HAS(tbl, v) ? j : cursor + m;
}

/* scan, on two orbits where the call takes the entry and the filter has no
 * set: a second orbit starts at the midpoint of the range in a struct half
 * and records its first attempts (see record). Then one loop makes one
 * attempt of each orbit per pass, so that the chain of loads and hash steps
 * that leads from one window end to the next in one orbit overlaps that of
 * the other, and hands both attempts to scan where one of them verifies.
 * Each orbit then finishes its own bound alone, and join merges them, so
 * positions and counters are those of one orbit. When pos fills before the
 * midpoint, the second orbit is not needed. A failed malloc leaves the range
 * on one orbit.
 * The loop reads tbl alone. With the set's probes in it as well, four more
 * values were live there, and 1 MiB ACGT scans on two threads took 0.268
 * against 0.252 ms at m = 16 and 0.409 against 0.404 ms at m = 8, and on
 * one CPU 0.432 against 0.409 and 0.685 against 0.665 ms (medians of 15,
 * 8 patterns each, interleaved in one process, 2-vCPU Xeon VM), so a call
 * with the set scans on one orbit; the benchmark workloads have none that
 * takes the entry. Against one orbit, 1 MiB ACGT on two threads: m = 4 1.43
 * -> 1.01 ms, m = 8 0.55 -> 0.39 ms, m = 16 0.32 -> 0.25 ms; on one CPU:
 * m = 4 1.98 -> 1.77 ms (its 4,096 or so positions overflow pos at the join,
 * and the next call scans the second half again), m = 8 0.99 -> 0.67 ms,
 * m = 16 0.55 -> 0.41 ms (same runs). */
static int64_t scan_two(const struct call *c, int64_t n, int64_t *pos, int64_t cap, int64_t *st)
{
    struct half *h = c->entry && !c->slots ? new_half(c, n, cap, st, st[0] + (n - st[0]) / 2) : NULL;
    if (!h)
        return scan(c, n, pos, cap, st);
    const uint8_t *y = c->y, *tbl = c->tbl;
    const int64_t m = c->m, mid = h->st[0];
    const int s = c->s;
    const uint64_t mask = c->mask;
    int64_t more = record(h), found = 0, a = st[0], b = h->st[0];
    while (a < mid && b < n && found < cap && more < cap) {
        int64_t att = 0;
        for (; a < mid && b < n; att++) {
            int64_t a2 = next_end(y, m, tbl, s, mask, a), b2 = next_end(y, m, tbl, s, mask, b);
            if (a2 == a || b2 == b)
                break; /* one of the two attempts verifies */
            a = a2;
            b = b2;
        }
        advance(st, a, att);
        advance(h->st, b, att);
        if (a >= mid || b >= n)
            break;
        found += scan(c, a + 1, pos + found, cap - found, st);
        more += scan(c, b + 1, h->pos + more, cap - more, h->st);
        a = st[0];
        b = h->st[0];
    }
    found += scan(c, mid, pos + found, cap - found, st);
    if (found < cap) {
        h->found = more + scan(c, n, h->pos + more, cap - more, h->st);
        found = join(c, h, pos, cap, st, found);
    }
    free(h);
    return found;
}

/* The helper thread: its records, then the rest on two orbits. */
static void *scan_half(void *arg)
{
    struct half *h = arg;
    int64_t found = record(h);
    h->found = found + scan_two(h->c, h->n, h->pos + found, h->cap - found, h->st);
    return NULL;
}

/* The scan of a long call on two threads, with the positions and counters
 * of one. The next window end is a function of the window end alone, and so
 * is what an attempt adds to each counter: the scan is the orbit of st[0]
 * under that step. After a lead (see SPLIT_LEAD), a helper thread starts its
 * own orbit at the midpoint of the rest, while this thread scans up to it.
 * Then this thread walks on until its window end equals one the helper
 * recorded: from there the two orbits are one, so the helper's state at its
 * end, and its counters and positions since that record, are this
 * thread's (see join). If the positions do not fit in pos, the call returns
 * at the join and the next call resumes there; if no window end matches,
 * this thread scans on alone. The lead, this thread's part up to the
 * midpoint and the helper's after its records are each scanned on two
 * orbits of the thread (see scan_two). A failed malloc or pthread_create
 * leaves the scan on one thread. The helper touches
 * only its struct half and the call's read-only inputs, and is joined before
 * return. */
static int64_t split(const struct call *c, int64_t n, int64_t *pos, int64_t cap, int64_t *st)
{
    int64_t found = scan_two(c, st[0] + (n - st[0]) / SPLIT_LEAD, pos, cap, st);
    const int64_t mid = st[0] + (n - st[0]) / 2;
    struct half *h = NULL;
    pthread_t helper;
    if (found * SPLIT_LEAD <= 2 * cap && (h = new_half(c, n, cap, st, mid)) &&
        pthread_create(&helper, NULL, scan_half, h)) {
        free(h);
        h = NULL;
    }
    if (!h)
        return found + scan(c, n, pos + found, cap - found, st); /* dense lead, or no helper */
    found += scan_two(c, mid, pos + found, cap - found, st);
    pthread_join(helper, NULL);
    found = join(c, h, pos, cap, st, found);
    free(h);
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
 * [1, 4], and tbl and set are laid out as wfr_build fills them; the caller
 * checks both. mask is 2**alpha - 1: computed here from alpha, it took a
 * register in the k = 1 loop, and gcc 12 -O2 kept the window end on the
 * stack there instead.
 *
 * A k = 1 call chooses once whether its scans take the branch-free entry,
 * from the window ends at st[0] (see ENTRY_MISS_SHARE). A call with at least
 * SPLIT_MIN_WINDOWS windows scans on two threads where two CPUs are usable
 * (see split), and on two orbits of the calling thread where one is, if it
 * takes the entry without the hashed set (see scan_two); the rest scan on
 * the calling thread alone, on one orbit. */
int64_t wfr_scan(const uint8_t *x, int64_t m, const uint8_t *y, int64_t n,
                 const uint8_t *tbl, const uint32_t *set, int64_t slots, int s, uint64_t mask,
                 int k, int64_t *pos, int64_t cap, int64_t *st, int64_t base)
{
    const struct call c = {
        x, y, tbl, set, m, slots, base, mask, s, k,
        k == 1 && m >= ENTRY_M_MIN && m <= ENTRY_M_MAX && entry_pays(y, n, tbl, s, mask, st[0]),
    };
    if ((n - st[0]) / m < SPLIT_MIN_WINDOWS)
        return scan(&c, n, pos, cap, st);
    if (usable_cpus() < 2)
        return scan_two(&c, n, pos, cap, st);
    return split(&c, n, pos, cap, st);
}
