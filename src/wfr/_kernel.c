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
 * one character per probe. wfr_scan inlines that loop five times (scan_k
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
 * Hash arithmetic is unsigned 64-bit; with alpha <= 30 and shift_s <= 2 no
 * intermediate value overflows. Built by engine.py with cc -O2 -shared
 * -fPIC.
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
#include <stdint.h>
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
 * stops the scan after that attempt. Testing found < cap on every attempt
 * as well kept one more value live in the attempt loop: the dna-short
 * benchmark workload's query_ms_p50 then rose 4.9% over the kernel without
 * the probe memo, against 1.3% with end (10 and 4 alternating runs, 2-vCPU
 * Xeon VM).
 *
 * With hashed set (the filter has a set), a probe of a value at or above
 * 2**DIRECT_BITS searches the set; without it every probe reads tbl alone.
 * The four k = 1 copies take hashed as a constant, because a run-time test
 * of the set in one shared k = 1 copy cost the dna-short benchmark workload
 * about 20% in a prototype. The k = 2..4 copy tests it at run time (see
 * below).
 *
 * always_inline, so that wfr_scan's five calls give five copies. In the
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
            uint64_t v1 = y[j] & mask;
            uint64_t v2 = ((v1 << s) + y[j - 1]) & mask;
            uint64_t v3 = ((v2 << s) + y[j - 2]) & mask;
            int64_t p1 = BIT(tbl, v1), p2 = BIT(tbl, v2), p3 = BIT(tbl, v3);
            if (!(p1 & p2 & p3)) {
                cursor = j - p1 - (p1 & p2);
                j = cursor + m;
                shift += cursor + 1 - i;
                continue;
            }
            cursor = j - 2;
            v = v3;
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
 * The scan runs one of five copies of scan_k, for the reasons given there:
 * - for k = 1, the loop or the branch-free entry, as entry_pays chooses per
 *   call (see ENTRY_MISS_SHARE), each with or without the hashed set, with
 *   k and the set test constant: run-time k cost the k = 1 scan 1.2 times
 *   on dna-short and 1.7 times on zero-runs, a run-time set test dna-short
 *   20%;
 * - for k = 2..4, one copy with k and the set test read at run time: text-
 *   long k = 4 queries took as long as with six constant copies, and .text
 *   is 2.7 KB smaller. */
int64_t wfr_scan(const uint8_t *x, int64_t m, const uint8_t *y, int64_t n,
                 const uint8_t *tbl, const uint32_t *set, int64_t slots, int s, uint64_t mask,
                 int k, int64_t *pos, int64_t cap, int64_t *st, int64_t base)
{
    if (k == 1) {
        int entry = m >= ENTRY_M_MIN && m <= ENTRY_M_MAX && entry_pays(y, n, tbl, s, mask, st[0]);
        if (entry && slots)
            return scan_k(x, m, y, n, tbl, set, slots, s, mask, 1, 1, 1, pos, cap, st, base);
        if (entry)
            return scan_k(x, m, y, n, tbl, set, slots, s, mask, 1, 1, 0, pos, cap, st, base);
        if (slots)
            return scan_k(x, m, y, n, tbl, set, slots, s, mask, 1, 0, 1, pos, cap, st, base);
        return scan_k(x, m, y, n, tbl, set, slots, s, mask, 1, 0, 0, pos, cap, st, base);
    }
    return scan_k(x, m, y, n, tbl, set, slots, s, mask, k, 0, slots != 0, pos, cap, st, base);
}
