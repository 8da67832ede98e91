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
 * Every copy of the scan applies this rule. Searches of 1 MiB through
 * engine.py, without the rule -> with it, against a loop of bytes.find:
 * 0^31 x in zeros 11.4 -> 0.058 ms (find 3.15 ms); a^8 in a's, with 2**20
 * - 7 positions, 28.6 -> 21.4 ms (find 148 ms), most of it now the Python
 * ints of the positions (medians of 15, 2-vCPU Xeon VM). A call on two
 * orbits (see two_orbits) still scans the runs it meets there window by
 * window: it hands each verifying attempt to scan as a call of one window,
 * which ends before the byte after that window and so never stops for a
 * run. Periodic text with a period of 2 or more, such as (ab)^16 in
 * (ab)^n, stays quadratic.
 *
 * The k = 1 scan also has a branch-free entry. It tests the probes at j,
 * j - 1 and j - 2 of a window at once (entry_probes) and branches only on
 * "all three pass". Where an attempt stops at its 2nd or 3rd probe about
 * equally often, as for short patterns on small alphabets, the loop's exit
 * branch is mispredicted on a large share of attempts, and the entry saves
 * that cost. Where the first probes are predictable it costs more than it
 * saves, so wfr_scan chooses per call, from what it observes of the
 * pattern and the text, whether the scan takes it. Either way every probe
 * has the same outcome. Each attempt of a pattern longer than SHORT_M_MAX
 * prefetches the text PREFETCH_WINDOWS windows ahead: the entry makes the
 * next window end wait for its loads, and on a text that is not in cache
 * those loads would no longer overlap.
 *
 * Each probe is written once: entry_probes makes the entry's three,
 * probe_loop the loop's, and has tests a value's membership. scan_k, the
 * two-orbit loop's next_end and the sampler entry_pays call them.
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
 * ends (an orbit) anywhere ahead, and the calling thread, once its window
 * end equals one of the helper's, takes the helper's state and adds its
 * counters and positions since then. Positions and counters are those of
 * one thread. The helper takes its part when it starts, the back half of
 * what the calling thread has left, not a midpoint fixed before it runs: on
 * a 2-vCPU Xeon VM (KVM) a thread created after >= 1.5 ms in which the
 * other vCPU idled starts 138 us later (median; p90 188 us), against 11 us
 * after a 20 us gap, and a thread parked on a condition variable wakes no
 * sooner (135 us). When a call's positions overflow pos at a join, where its batch
 * ends may depend on that timing; its final positions and counters do not.
 * Where such a call takes the entry without the hashed set and m <=
 * SHORT_M_MAX, the calling thread scans on two orbits, the second from the
 * midpoint, and the helper takes a part of each, all joined the same way
 * (see two_orbits): the k = 1 entry waits about 20 cycles on a chain of
 * loads and hash steps from one window end to the next, and two orbits in
 * one loop overlap their chains.
 * On one usable CPU split starts no helper: the calling thread scans such
 * a call's two orbits in the same steps and joins them the same way, and
 * scans any other long call as it scans a short one.
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
 * entry_probes reads tbl alone, which holds every value it probes: its
 * probes hash at most 3 bytes, so each value is below 2**14 <
 * 2**DIRECT_BITS and below 2**alpha. */
#define _GNU_SOURCE /* sched_getaffinity */
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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
        return (tbl[v >> 3] & (1u << (v & 7))) != 0;
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

/* The branch-free entry of a k = 1 attempt at window end j: the hashes of
 * the probes at j, j - 1 and j - 2 and their three table bits, loaded with
 * no branch between the loads. p1 is 1 when the first probe passes, p12 when
 * the first two pass and pass when all three pass; otherwise stop = j - p1 -
 * p12 is where the first failing probe stands and the attempt ends. v3 is
 * the hash of y[j - 2..j]. Reads y[j - 2..j]. Every entry attempt is made
 * here, by scan_k and next_end, and entry_pays samples these outcomes here:
 * written with a branch inside, or with pointers out, it changed gcc 12's
 * block layout of scan_copy's copies. */
struct entry {
    int64_t p1, p12, pass, stop;
    uint64_t v3;
};

static inline __attribute__((always_inline)) struct entry
entry_probes(const uint8_t *y, const uint8_t *tbl, int s, uint64_t mask, int64_t j)
{
    uint64_t v1 = y[j] & mask;
    uint64_t v2 = ((v1 << s) + y[j - 1]) & mask;
    uint64_t v3 = ((v2 << s) + y[j - 2]) & mask;
    int64_t p1 = BIT(tbl, v1), p12 = p1 & BIT(tbl, v2);
    return (struct entry){p1, p12, p12 & BIT(tbl, v3), j - p1 - p12, v3};
}

/* The probe loop of an attempt, from cursor > lim down: fold up to k
 * characters into the suffix hash *v (fewer at lim), probe the filter, and
 * repeat until a probe fails or the fold reaches lim. Returns the cursor
 * where it stopped: above lim at the failing probe, or lim, whose probe the
 * caller makes. scan_k and next_end make every attempt's loop here. The hash
 * goes through a pointer and the cursor comes back, so that each caller's
 * machine code is that of the loop written inline. */
static inline __attribute__((always_inline)) int64_t
probe_loop(const uint8_t *y, const uint8_t *tbl, const uint32_t *set, uint32_t last, int sh, int s,
           uint64_t mask, const int k, const int hashed, int64_t cursor, int64_t lim, uint64_t *v)
{
    do {
        int64_t stop = cursor - k > lim ? cursor - k : lim;
        do {
            cursor--;
            *v = ((*v << s) + y[cursor]) & mask;
        } while (cursor > stop);
    } while (cursor > lim && has(tbl, set, last, sh, hashed, *v));
    return cursor;
}

/* SHORT_M_MAX: the longest pattern whose calls scan on two orbits (see
 * split), whose attempts issue no prefetch, and that needs no number of
 * windows to take the entry (see ENTRY_LONG_WINDOWS).
 * PREFETCH_WINDOWS: an attempt of a longer pattern first prefetches the
 * text this many windows of m bytes past its window end, unless that is at
 * or past n. An attempt shifts by about m, so each window lands on a cache
 * line the scan has not touched, and the k = 1 entry makes the next window
 * end wait for its loads; with a predicted exit branch the loop lets the
 * next window's loads start while a probe's load is still out. Against
 * the kernel that kept the entry to m <= 64 and issued no prefetch, k = 1
 * searches of 16 MiB on 64 symbols at m = 256, alpha 16 and 24, took 1.70
 * and 1.80 times as long with the entry and no prefetch, 1.50 and 1.49
 * times with a prefetch 1 window ahead, 1.16 and 1.14 with 2, 0.92 and
 * 0.90 with 4, and 1.02 and 1.00 with 8. At m = 1024, on 16 and 64
 * symbols, 4 windows took 0.57-0.73 times as long at k = 1 (8: 0.59-0.80)
 * and 0.75-0.84 times at k = 4 (8: 0.83-0.92). Each time is a
 * mean over 6 patterns of the median of 5 searches, the median of 6
 * alternating processes pinned to one CPU (2-vCPU Xeon VM). The test of the
 * address is a branch, not a clamp to j: a conditional move kept n live,
 * and m = 1024, k = 1 searches of 1 MiB on 64 symbols at alpha = 24, which
 * stay in cache and do not take the entry, took 1.13 times as long as
 * without the prefetch, against 1.01 times with the branch (medians of 6
 * and 8 alternating processes). The test of m is inline: in a prototype, a local holding the
 * distance kept one more value live in the k = 1 copies, and the dna-short
 * benchmark workload's query_ms_p50 read 1.3% slower in 3 alternating
 * pairs, against flat in 4. Where m <= SHORT_M_MAX the second orbit's
 * MERGE_PREFIX records fit in one SPLIT_STEP (see there). */
#define SHORT_M_MAX 64
#define PREFETCH_WINDOWS 4

/* The scan loop for one k: each attempt runs probe_loop from its window end
 * towards the window start, and verifies when the probe at the window start
 * passes. k = 1 probes after every character.
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
 * With entry set (k = 1 only), an attempt first makes its probes at j,
 * j - 1 and j - 2 in entry_probes and ends at the first that fails, as the
 * loop would end it. Only "all three pass" branches, into the loop at
 * cursor j - 2. The entry runs only when j - 2 > lim, so it never reaches
 * the window start or a probe the memo knows, and it reads only y[i..j].
 * (With m >= 4 this always holds: i <= j - 3, and hi + 1 <= j - L + 1 <=
 * j - 3 since L >= 4.) No probe changes its outcome, so positions and
 * counters are those of the loop. The loop pays a mispredicted exit branch
 * on many attempts when the first probes pass or fail about equally often:
 * for m = 8 on 4 symbols, as on the dna-short workload, 0.94, 0.41 and 0.09
 * of the attempts passed their 1st, 2nd and 3rd probe (8 patterns, 256
 * KiB). Where the exit is predictable the entry costs more than it saves:
 * see ENTRY_MISS_SHARE.
 *
 * The verification compares a word at a time up to the first unequal word
 * and then byte by byte, so t, the length of the match, and the comparison
 * counter are those of a byte loop; every word lies in y[i..j].
 *
 * The loop tests only j < end, and end drops to 0 when pos fills, which
 * stops the scan after that attempt. It also drops to 0 after a verified
 * window whose bytes at i, j and j + 1 are equal, where a run of one byte
 * value may start (see run_skip). Testing found < cap on every attempt as
 * well kept one more value live in the attempt loop: the dna-short
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
        if (m > SHORT_M_MAX && j + PREFETCH_WINDOWS * m < n) /* see PREFETCH_WINDOWS */
            __builtin_prefetch(y + j + PREFETCH_WINDOWS * m);
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
        cursor = probe_loop(y, tbl, set, last, sh, s, mask, k, hashed, cursor, lim, &v);
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
            if (j + 1 < n && y[j] == y[i] && y[j + 1] == y[i])
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

/* When a k = 1 call takes the branch-free entry (see scan_k): when m >=
 * ENTRY_M_MIN, the call of a pattern longer than SHORT_M_MAX has at least
 * ENTRY_LONG_WINDOWS windows, and entry_pays. The bound on m alone would
 * take the entry where the first probe fails predictably: taken on every
 * call, it slowed m = 8 scans of 1 MiB from 0.89-0.91 to 1.35-1.41 ms on 64
 * symbols and from 0.58-0.64 to 1.34-1.39 ms on 256 (3 alternating runs
 * each, 2-vCPU Xeon VM). Long patterns take it too, with the prefetch of
 * PREFETCH_WINDOWS.
 *
 * ENTRY_M_MIN: below it the probe at j - 2 is at or left of the window
 * start, whose probe the loop's verify test makes, so the entry never runs.
 * ENTRY_SAMPLE: at a share of 0.3 one binomial standard deviation over 256
 * window ends is 0.03. The sample took 1.1-1.8 us a call on 4, 64 and 256
 * symbols, 0.2% of an m = 8 scan of 1 MiB on 64 symbols.
 * ENTRY_LONG_WINDOWS: a long pattern's window ends lie about m apart, so its
 * call makes about as many attempts as it has windows, and the sample costs
 * about as much as 50 of its attempts. At m = 1024 on 1 MiB of 16 symbols (1,023
 * windows, k = 1), searched over and over so that the text stays in cache,
 * the sample alone made a search 3-4% slower (16.26 -> 16.83 us at alpha =
 * 16, 17.97 -> 18.50 us at 24), and the entry it chose gained nothing
 * there (16.87 and 18.55 us); medians of 8 alternating processes pinned to
 * one CPU, 2-vCPU Xeon VM. A pattern of at most SHORT_M_MAX bytes has 2**14
 * windows or more in any 1 MiB call.
 * ENTRY_MISS_SHARE: the ratio of the entry's time to the loop's, per
 * pattern, with both copies in one library timed in turn on 1 MiB, was
 * 0.96-1.52 for shares below 0.2 (1.35-1.52 on 64 and 256 symbols),
 * 0.87-1.15 from 0.2 to 0.3, 0.93-1.04 from 0.3 to 0.35 and 0.64-0.98
 * above (114 patterns, sigma 2 to 256, m 4 to 64). */
#define ENTRY_M_MIN 4
#define ENTRY_SAMPLE 256
#define ENTRY_LONG_WINDOWS (8 * ENTRY_SAMPLE)
#define ENTRY_MISS_SHARE 0.3

/* Whether a predictor that guesses, for each of the first three k = 1
 * probes, the outcome that most of the windows reaching it have would miss
 * on at least ENTRY_MISS_SHARE of the window ends j0, j0 + 1, ... (up to
 * ENTRY_SAMPLE of them, all < n). A window's probes stop at the first that
 * fails, so the guesses amount to one guessed stop, after d passes, and the
 * predictor misses every window that stops elsewhere. The sample takes each
 * window's outcomes from entry_probes; it reads y[j0 - 2 ..], and
 * j0 >= m - 1 >= 3. */
static int entry_pays(const uint8_t *y, int64_t n, const uint8_t *tbl, int s,
                      uint64_t mask, int64_t j0)
{
    int64_t end = n - j0 < ENTRY_SAMPLE ? n : j0 + ENTRY_SAMPLE;
    int64_t reach[5] = {end - j0, 0, 0, 0, 0}; /* windows whose first d probes pass */
    for (int64_t j = j0; j < end; j++) {
        struct entry e = entry_probes(y, tbl, s, mask, j);
        reach[1] += e.p1;
        reach[2] += e.p12;
        reach[3] += e.pass;
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
 * scan stops; the run is read no further than one window past them.
 * Returns the positions written; when y[i..j + 1] is not one run, it writes
 * none and leaves st as it is. */
static __attribute__((noinline, cold)) int64_t
run_skip(const struct call *c, int64_t n, int64_t *pos, int64_t cap, int64_t *st)
{
    const int64_t m = c->m, i = st[0] - m;
    const uint8_t b = c->y[i];
    const int64_t t = run_length(c->x, b, m);
    /* where t == m, a run of cap + 1 windows or more is cut below */
    const int64_t most = t == m && n - i > m + cap + 1 ? m + cap + 1 : n - i;
    int64_t w = run_length(c->y + i, b, most) - m; /* the window ends st[0], ... in the run */
    if (w < 1)
        return 0;
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
 * Every copy stops there, and for nothing else before n while pos has room.
 * A skip ends before n, so the scans of a split call, each to its own
 * bound, pass through the window ends of the window by window scan. */
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

/* A call with at least SPLIT_MIN_WINDOWS windows, (n - st[0]) / m, goes
 * to split, which scans it on two threads where two CPUs are usable;
 * shorter calls go to scan.
 * SPLIT_MIN_WINDOWS: starting and joining the helper costs tens of us. An
 * m = 8 search of 4-symbol text took 57.4 us split against 57.9 us not at
 * 8,192 windows, 81 against 111 us at 16,384 and 150 against 226 us at
 * 32,768 (medians of 31, interleaved). At 2**15 every dna-short library
 * query (m <= 16 on 1 MiB) and every 1 MiB chunk of its CLI run splits, and
 * no text-long (m >= 256 on 1 MiB) or zero-runs (m >= 8 on 128 KiB) call
 * does, nor the m = 64 scans of 1 MiB that test_c6_chained_variant_throughput
 * times (16,384 windows).
 * MERGE_PREFIX: a part that another orbit joins records its first attempts
 * one at a time. Over 10 rounds of the dna-short workload, the calling
 * thread met a record within the first 16 in 234 of 315 library splits,
 * within 64 in 68 more, within 128 in 10 and within 256 in the other 3; of
 * the 320 CLI splits (m = 16), 160, 130, 27 and 3. Chained probes (k > 1)
 * meet later or not at all: at m = 8 on 64 symbols, 7 of 8 k = 4 splits met
 * none of 256, and the calling thread scanned on alone. 256 records take
 * 12 KiB: a struct half with cap = 4096 positions takes 44 KiB, and a split
 * call that takes the entry allocates three (the calling thread's second
 * orbit and the helper's two parts), 132 KiB.
 * SPLIT_STEP: the calling thread renews its bound under a lock once per
 * step, and the helper's part starts half the rest past that bound, so the
 * helper's share falls short of half by up to half a step. Against 16 KiB,
 * m = 8 and 16 scans of 1 MiB ACGT took 0.98-1.02 times as long with steps
 * of 4 and 8 KiB, back to back and after a pause, 0.99-1.03 times with
 * 32 KiB and 1.08 times back to back with 64 KiB (medians of 21,
 * interleaved in one process). 16 KiB also holds the calling thread's
 * second orbit's records, at most MERGE_PREFIX attempts of at most m <=
 * SHORT_M_MAX bytes, so a part the helper takes never starts among them.
 * Times are from a 2-vCPU Xeon VM. */
#define SPLIT_MIN_WINDOWS (1 << 15)
#define MERGE_PREFIX 256
#define SPLIT_STEP (16 << 10)

/* A part of a range scanned as its own orbit: a part the helper of a split
 * call takes (see steal), or the calling thread's second orbit (see split).
 * Its scan of y[0..n) from window end st[0] into pos, which has cap slots.
 * Record t is st before its attempt t, then the positions found before it. */
struct half {
    const struct call *c;
    int64_t n, cap, found, records;
    int64_t st[5];
    int64_t rec[MERGE_PREFIX][6];
    int64_t pos[];
};

/* A struct half for the orbit of window end `start` up to n, with counters
 * from 0 (join adds only their differences); NULL when malloc fails. */
static struct half *new_half(const struct call *c, int64_t n, int64_t cap, int64_t start)
{
    struct half *h = malloc(sizeof *h + cap * sizeof *h->pos);
    if (h) {
        h->c = c;
        h->n = n;
        h->cap = cap;
        memset(h->st, 0, sizeof h->st);
        h->st[0] = start;
    }
    return h;
}

/* h's first MERGE_PREFIX attempts, each a scan of one window end that
 * records the state before it, and the positions they find. */
static void record(struct half *h)
{
    int64_t found = 0, t = 0;
    for (; t < MERGE_PREFIX && h->st[0] < h->n; t++) {
        memcpy(h->rec[t], h->st, sizeof h->st);
        h->rec[t][5] = found;
        found += scan(h->c, h->st[0] + 1, h->pos + found, h->cap - found, h->st);
    }
    h->records = t;
    h->found = found;
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

/* The rest of a scan once the part h that follows it has ended: this
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
 * with the entry, no memo and no set: entry_probes, and where all three
 * pass, probe_loop down to the window start and has for the probe there.
 * The entry's probes lie right of the window start, since
 * m >= ENTRY_M_MIN. */
static inline __attribute__((always_inline)) int64_t
next_end(const uint8_t *y, int64_t m, const uint8_t *tbl, int s, uint64_t mask, int64_t j)
{
    struct entry e = entry_probes(y, tbl, s, mask, j);
    if (!e.pass)
        return e.stop + m;
    int64_t i = j - m + 1;
    uint64_t v = e.v3;
    int64_t cursor = probe_loop(y, tbl, NULL, 0, 0, s, mask, 1, 0, j - 2, i, &v);
    return cursor == i && has(tbl, NULL, 0, 0, 0, v) ? j : cursor + m;
}

/* Two orbits of a call that takes the entry, whose filter has no set and
 * whose m is at most SHORT_M_MAX:
 * the one of st up to window end ea, into pos after its found positions,
 * and h's up to eb. One loop makes one attempt of each orbit per pass, so
 * that the chain of loads and hash steps that leads from one window end to
 * the next in one orbit overlaps that of the other, and hands both attempts
 * to scan where one of them verifies, as a call of one window, so runs of
 * one byte value are scanned here window by window (see the header); each
 * orbit then finishes its bound alone, h's only while pos has room.
 * Returns the first orbit's positions, found included; h->found counts h's.
 * The loop reads tbl alone. With the set's probes in it as well, four more
 * values were live there, and 1 MiB ACGT scans on two threads took 0.268
 * against 0.252 ms at m = 16 and 0.409 against 0.404 ms at m = 8, and on
 * one CPU 0.432 against 0.409 and 0.685 against 0.665 ms (medians of 15,
 * 8 patterns each, interleaved in one process, 2-vCPU Xeon VM), so a call
 * with the set scans on one orbit.
 * Two orbits gain on one CPU as well, so the calling thread scans on two
 * where split has no helper. Against one orbit, 1 MiB ACGT on two threads:
 * m = 4 1.43 -> 1.01 ms, m = 8 0.55 -> 0.39 ms, m = 16 0.32 -> 0.25 ms; on
 * one CPU: m = 4 1.98 -> 1.77 ms (its 4,096 or so positions overflow pos at
 * the join, and the next call scans the second half again), m = 8 0.99 ->
 * 0.67 ms, m = 16 0.55 -> 0.41 ms (medians of 15, 8 patterns each,
 * interleaved in one process, 2-vCPU Xeon VM). */
static int64_t two_orbits(const struct call *c, int64_t *st, int64_t *pos, int64_t cap,
                          int64_t found, struct half *h, int64_t ea, int64_t eb)
{
    const uint8_t *y = c->y, *tbl = c->tbl;
    const int64_t m = c->m;
    const int s = c->s;
    const uint64_t mask = c->mask;
    int64_t more = h->found, a = st[0], b = h->st[0];
    while (a < ea && b < eb && found < cap && more < h->cap) {
        int64_t att = 0;
        for (; a < ea && b < eb; att++) {
            int64_t a2 = next_end(y, m, tbl, s, mask, a), b2 = next_end(y, m, tbl, s, mask, b);
            if (a2 == a || b2 == b)
                break; /* one of the two attempts verifies */
            a = a2;
            b = b2;
        }
        advance(st, a, att);
        advance(h->st, b, att);
        if (a >= ea || b >= eb)
            break;
        found += scan(c, a + 1, pos + found, cap - found, st);
        more += scan(c, b + 1, h->pos + more, h->cap - more, h->st);
        a = st[0];
        b = h->st[0];
    }
    found += scan(c, ea, pos + found, cap - found, st);
    if (found < cap)
        more += scan(c, eb, h->pos + more, h->cap - more, h->st);
    h->found = more;
    return found;
}

/* What a split call and its helper share. The calling thread's orbits are
 * orbit 0, of st, and where two_orbits applies orbit 1, its second orbit.
 * Orbit o scans up to end[o], and bound[o] is where its current step ends:
 * both change only under lock. The helper's part of orbit o, if it took
 * one, is part[o]. users counts the threads yet to leave; the last frees
 * the block. c, cap and orbits are set before the helper starts. */
struct share {
    pthread_mutex_t lock;
    pthread_cond_t finished;
    const struct call *c;
    int64_t cap;
    int64_t bound[2], end[2];
    struct half *part[2];
    int orbits, closed, done, users;
};

/* Leave the block: the last of its two users frees it. Called under lock. */
static void leave(struct share *sh)
{
    int last = --sh->users == 0;
    pthread_mutex_unlock(&sh->lock);
    if (last) {
        pthread_mutex_destroy(&sh->lock);
        pthread_cond_destroy(&sh->finished);
        free(sh);
    }
}

/* The bound of a step from window end j of an orbit that ends at end. */
static inline int64_t step_end(int64_t j, int64_t end)
{
    return j + SPLIT_STEP < end ? j + SPLIT_STEP : end;
}

/* The helper thread: whenever it starts, it takes the back half of what
 * each of the calling thread's orbits has left past its current bound, and
 * scans those parts as its own orbits, recording their first attempts, two
 * in one loop (see two_orbits) or one alone. It takes nothing when the call
 * has closed or when a part would be shorter than a step. It reads the
 * call's inputs only while it holds work that the calling thread waits for.
 * It takes its parts from dense texts too. A part that fills its buffer
 * before the calling thread joins it stops there, and a rule that declined
 * when the positions found so far, times 16, exceeded two buffers (the
 * fixed-half split checked this after scanning the first 1/16 alone) made
 * no scan faster by more than 2% and slowed some by half: 1 MiB ACGT with
 * its 8 bytes planted every 256 bytes, searched after 1.5 ms of Python
 * work, took 0.83 ms without the rule and 1.22 ms with it, and every 128
 * bytes 1.46 against 1.61 ms; zero runs, zeros and runs of a with m = 4 and
 * 8 read within 2% either way (medians of 11-21, interleaved, 2-vCPU Xeon
 * VM). */
static void *steal(void *arg)
{
    struct share *sh = arg;
    const struct call *c = sh->c;
    struct half *p[2] = {NULL, NULL}, *part[2] = {NULL, NULL};
    for (int o = 0; o < sh->orbits; o++)
        p[o] = new_half(c, 0, sh->cap, 0); /* before the lock: the caller never waits on malloc */
    pthread_mutex_lock(&sh->lock);
    if (!sh->closed)
        for (int o = 0; o < sh->orbits; o++) {
            int64_t rest = sh->end[o] - sh->bound[o];
            if (p[o] && rest >= 2 * SPLIT_STEP) {
                p[o]->n = sh->end[o];
                p[o]->st[0] = sh->end[o] = sh->bound[o] + rest / 2;
                sh->part[o] = part[o] = p[o];
                p[o] = NULL;
            }
        }
    const int taken = part[0] || part[1];
    if (taken)
        pthread_mutex_unlock(&sh->lock);
    else
        leave(sh);
    free(p[0]);
    free(p[1]);
    if (!taken)
        return NULL; /* the helper takes nothing */
    if (part[0] && part[1]) {
        record(part[0]);
        record(part[1]);
        part[0]->found = two_orbits(c, part[0]->st, part[0]->pos, part[0]->cap, part[0]->found, /* two */
                                    part[1], part[0]->n, part[1]->n);
    } else {
        struct half *h = part[0] ? part[0] : part[1];
        record(h);
        h->found += scan(c, h->n, h->pos + h->found, h->cap - h->found, h->st); /* one */
    }
    pthread_mutex_lock(&sh->lock);
    sh->done = 1;
    pthread_cond_signal(&sh->finished);
    leave(sh);
    return NULL;
}

/* The scan of a long call, on two threads where helper is set, with the
 * positions and counters of one. The next window end is a function of the
 * window end alone, and so is what an attempt adds to each counter: the
 * scan is the orbit of st[0] under that step, and a part started anywhere
 * ahead joins it where their window ends meet (see join). The helper thread
 * starts at once. The calling thread scans its orbits, two where two_orbits
 * applies (orbit 1 from the midpoint), in steps of at most SPLIT_STEP
 * bytes, and renews each step's bound under the lock. Whenever the helper
 * starts, it takes the back half of what each orbit has left past that
 * bound (see steal), so a late helper costs the call about its delay L and
 * no more: with one thread's work W, the call ends near L + (W - L) / 2
 * rather than W / 2 + L. At the end the calling thread waits for the parts
 * the helper took, never for a helper that has not yet run, and chains the
 * parts in text order: orbit 0, the helper's part of it, orbit 1 and the
 * helper's part of that, each joined to the orbit so far. When positions
 * overflow pos at a join, the call returns there and the next call resumes,
 * so where a call's batch ends may depend on the helper's timing; its final
 * positions and counters do not. Without a helper, where one CPU is usable
 * or pthread_create fails, the calling thread's steps run alone and end in
 * the same chain of joins. A call on one orbit where one CPU is usable,
 * whose steps would gain nothing, and a failed malloc leave the call to
 * scan, on one orbit.
 * With the midpoint fixed before the helper ran, the calling thread scanned
 * its half and then waited for the helper's late half: a thread created
 * after 1.5 ms of idle on the other vCPU starts 138 us late (median; 11 us
 * after a 20 us gap), and one parked on a condition variable wakes no
 * sooner (135 us). m = 8 and m = 16 scans of 1 MiB ACGT,
 * fixed midpoint -> this split: back to back 0.396 -> 0.365 ms and 0.259 ->
 * 0.232 ms, after 1.5 ms of Python work on the calling thread 0.534 ->
 * 0.430 ms and 0.399 -> 0.305 ms (medians of 15 x 8 patterns, interleaved
 * in one process, 2-vCPU Xeon VM). Spinning up to 200,000 pauses before
 * the wait for the helper took 1-3% more off after a pause, and was left
 * out. */
static int64_t split(const struct call *c, int64_t n, int64_t *pos, int64_t cap, int64_t *st,
                     int helper)
{
    const int64_t mid = st[0] + (n - st[0]) / 2;
    const int two = c->entry && !c->slots && c->m <= SHORT_M_MAX; /* see two_orbits */
    if (!helper && !two)
        return scan(c, n, pos, cap, st);
    struct share *sh = calloc(1, sizeof *sh);
    struct half *h = two ? new_half(c, n, cap, mid) : NULL;
    if (!sh || (two && !h)) {
        free(sh);
        free(h);
        return scan(c, n, pos, cap, st);
    }
    pthread_mutex_init(&sh->lock, NULL);
    pthread_cond_init(&sh->finished, NULL);
    sh->c = c;
    sh->cap = cap;
    sh->orbits = h ? 2 : 1;
    sh->end[0] = h ? mid : n;
    sh->end[1] = n;
    sh->bound[0] = st[0];
    sh->bound[1] = mid;
    sh->users = 2;
    pthread_t thread;
    if (!helper || pthread_create(&thread, NULL, steal, sh))
        sh->users = 1;
    else
        pthread_detach(thread);
    int64_t found = 0;
    if (h)
        record(h);
    for (;;) {
        pthread_mutex_lock(&sh->lock);
        const int64_t ea = sh->bound[0] = step_end(st[0], sh->end[0]);
        const int64_t eb = sh->bound[1] = h ? step_end(h->st[0], sh->end[1]) : n;
        if (found == cap || (st[0] >= sh->end[0] && (!h || h->st[0] >= sh->end[1] || h->found == cap)))
            break; /* under lock */
        pthread_mutex_unlock(&sh->lock);
        if (h)
            found = two_orbits(c, st, pos, cap, found, h, ea, eb);
        else
            found += scan(c, ea, pos + found, cap - found, st);
    }
    sh->closed = 1;
    while ((sh->part[0] || sh->part[1]) && !sh->done)
        pthread_cond_wait(&sh->finished, &sh->lock);
    struct half *chain[3] = {sh->part[0], h, sh->part[1]};
    int64_t end = sh->end[0];
    if (h)
        h->n = sh->end[1];
    leave(sh);
    for (int i = 0; i < 3; i++) {
        if (chain[i] && found < cap && st[0] >= end) { /* the orbit so far reached chain[i] */
            found = join(c, chain[i], pos, cap, st, found);
            end = chain[i]->n;
        }
        free(chain[i]);
    }
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
 * SPLIT_MIN_WINDOWS windows goes to split, with a helper thread where two
 * CPUs are usable; where one is, split scans it on the calling thread's two
 * orbits if two_orbits applies. The rest scan on the calling thread alone,
 * on one orbit. */
int64_t wfr_scan(const uint8_t *x, int64_t m, const uint8_t *y, int64_t n,
                 const uint8_t *tbl, const uint32_t *set, int64_t slots, int s, uint64_t mask,
                 int k, int64_t *pos, int64_t cap, int64_t *st, int64_t base)
{
    const struct call c = {
        x, y, tbl, set, m, slots, base, mask, s, k,
        k == 1 && m >= ENTRY_M_MIN && (m <= SHORT_M_MAX || (n - st[0]) / m >= ENTRY_LONG_WINDOWS) &&
            entry_pays(y, n, tbl, s, mask, st[0]),
    };
    if ((n - st[0]) / m < SPLIT_MIN_WINDOWS)
        return scan(&c, n, pos, cap, st);
    return split(&c, n, pos, cap, st, usable_cpus() > 1);
}
