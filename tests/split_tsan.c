/* The native kernel's two-thread scan under ThreadSanitizer. Build and run
 * from the repository root:
 *
 *   cc -O1 -g -fsanitize=thread -pthread -o split_tsan tests/split_tsan.c src/wfr/_kernel.c
 *   TSAN_OPTIONS=halt_on_error=1 ./split_tsan
 *
 * Each case searches 1 MiB of text (3 MiB for a pattern of 64 bytes or
 * more, so that the call still has 2**15 windows) with a filter of its own
 * alpha and shift_s, with a hashed set where alpha > 16, twice with wfr_scan:
 * once whole, so that its long calls scan on two threads where two CPUs are
 * usable, and once with each call's window ends capped 8 KiB past its
 * first, so that no call splits. The positions and the final state block
 * must be equal: the window end, from which the shift sum follows, and the
 * three counters. The cases run three times: back to back; with each whole
 * call after a 2 ms sleep, so that its helper thread starts late and takes
 * part of what is left; and pinned to one CPU after the kernel has counted
 * two, so that calls still split but the helper mostly runs after the call
 * has ended and takes nothing. Exits 1 on a difference; ThreadSanitizer
 * halts on a data race. */
#define _GNU_SOURCE /* sched_setaffinity */
#include <sched.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

void wfr_build_hashed(const uint8_t *x, int64_t m, uint8_t *tbl, uint32_t *set, int64_t slots,
                      int s, int alpha);
void wfr_build(const uint8_t *x, int64_t m, uint8_t *tbl, int s, int alpha);
int64_t wfr_scan(const uint8_t *x, int64_t m, const uint8_t *y, int64_t n,
                 const uint8_t *tbl, const uint32_t *set, int64_t slots, int s, uint64_t mask,
                 int k, int64_t *pos, int64_t cap, int64_t *st);

#define N (1 << 20)
#define LONG_N (3 << 20)
#define CAP 4096
#define DIRECT_BITS 16 /* the bitset holds the values below 2**16, a hashed set the rest */
#define SLOTS_MAX 1024
#define STEP 8192

static uint64_t seed = 0x9E3779B97F4A7C15u;

static uint64_t next(void) /* xorshift64 */
{
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
}

/* The positions of x in y written to out, their count returned and the
 * final state in st, the kernel's 5-slot block: the window end, the
 * verification, attempt and comparison counters, and a base of 0, since y
 * is the whole text. Each call's window ends stop at most step past its
 * first, or at n when step is 0. Each call starts pause us after the last. */
static int64_t search(const uint8_t *x, int64_t m, const uint8_t *y, int64_t n,
                      const uint8_t *tbl, const uint32_t *set, int64_t slots, int alpha, int shift,
                      int k, int64_t step, useconds_t pause, int64_t *out, int64_t *st)
{
    static int64_t pos[CAP];
    int64_t count = 0;
    memset(st, 0, 5 * sizeof *st);
    st[0] = m - 1;
    while (st[0] < n) {
        if (pause)
            usleep(pause);
        int64_t end = step && n - st[0] > step ? st[0] + step : n;
        int64_t found = wfr_scan(x, m, y, end, tbl, set, slots, shift, (1u << alpha) - 1, k, pos,
                                 CAP, st);
        memcpy(out + count, pos, found * sizeof *pos);
        count += found;
    }
    return count;
}

/* The search of y[at..at + m) in y, whole and in capped calls, with the
 * filter of alpha and shift_s = shift. Where alpha > DIRECT_BITS the filter
 * has a hashed set of the smallest power of two of slots at least 2 m L,
 * L = ceil(alpha / shift), as engine._layout sizes it; m L <= SLOTS_MAX / 2. */
static int check(const char *name, const uint8_t *y, int64_t n, int64_t at, int64_t m, int k,
                 int alpha, int shift, useconds_t pause)
{
    static uint8_t tbl[1 << (DIRECT_BITS - 3)];
    static uint32_t set[SLOTS_MAX];
    static int64_t whole[LONG_N], capped[LONG_N];
    int64_t st_whole[5], st_capped[5], slots = 0;
    const uint8_t *x = y + at;
    memset(tbl, 0, sizeof tbl);
    if (alpha > DIRECT_BITS) {
        slots = 1;
        while (slots < 2 * m * ((alpha + shift - 1) / shift))
            slots *= 2;
        memset(set, 0xFF, slots * sizeof *set); /* every slot EMPTY */
        wfr_build_hashed(x, m, tbl, set, slots, shift, alpha);
    } else
        wfr_build(x, m, tbl, shift, alpha);
    int64_t a = search(x, m, y, n, tbl, set, slots, alpha, shift, k, 0, pause, whole, st_whole);
    int64_t b = search(x, m, y, n, tbl, set, slots, alpha, shift, k, STEP, 0, capped, st_capped);
    int same = a == b && !memcmp(whole, capped, a * sizeof *whole) &&
               !memcmp(st_whole, st_capped, sizeof st_whole);
    printf("%s m=%lld k=%d alpha=%d shift_s=%d pause=%u us: %lld positions, %lld attempts: %s\n",
           name, (long long)m, k, alpha, shift, (unsigned)pause, (long long)a,
           (long long)st_whole[2], same ? "equal" : "DIFFERENT");
    return !same;
}

static uint8_t acgt[N], dense[N], sigma64[N], sevens[N], zero_runs[N], sigma16[LONG_N], zeros4[N];

/* Every case, each whole call after a sleep of pause us. */
static int check_all(useconds_t pause)
{
    int failed = 0;
    for (int64_t m = 4; m <= 16; m *= 2)
        for (int k = 1; k <= 4; k += 3)
            failed |= check("acgt", acgt, N, 1000, m, k, 16, 2, pause);
    failed |= check("dense", dense, N, 2000, 8, 1, 16, 2, pause);
    for (int k = 1; k <= 4; k++)
        failed |= check("sigma64", sigma64, N, 5000, 8, k, 16, 2, pause);
    for (int k = 1; k <= 4; k += 3)
        failed |= check("sevens", sevens, N, 1000, 8, k, 16, 2, pause);
    /* A pattern inside the first zero run, and one across its end. */
    failed |= check("zero-runs", zero_runs, N, 40, 8, 1, 16, 2, pause);
    int64_t edge = 40;
    while (!zero_runs[edge])
        edge++;
    failed |= check("zero-runs edge", zero_runs, N, edge - 4, 8, 1, 16, 2, pause);
    /* Longer than 64 bytes: the branch-free entry on one orbit, prefetching. */
    failed |= check("sigma16", sigma16, LONG_N, 7000, 65, 1, 16, 2, pause);
    /* 64 bytes: two orbits at their bound, whose second orbit's records can
     * span one whole split step. */
    failed |= check("sigma16", sigma16, LONG_N, 7000, 64, 1, 16, 2, pause);
    /* The branch-free entry on two orbits, meeting zero runs that each
     * orbit hands to run_skip after a verified window: a pattern of a 0 and
     * then 7 bytes that are not all 0. */
    int64_t at = 2000;
    while (zeros4[at] || !zeros4[at + 1])
        at++;
    failed |= check("zeros4", zeros4, N, at, 8, 1, 16, 2, pause);
    /* The same at shift_s = 1, where the two orbits' entry table is 2 KiB,
     * and alpha = 12. */
    failed |= check("zeros4", zeros4, N, at, 8, 1, 12, 1, pause);
    /* alpha = 20: the filter has a hashed set, so the call scans on one
     * orbit, and a helper's part probes the entry through scan_k's copy
     * with the set, in the entry table on the calling thread's stack. */
    failed |= check("acgt", acgt, N, 1000, 8, 1, 20, 2, pause);
    return failed;
}

int main(void)
{
    for (int64_t i = 0; i < N; i++) {
        acgt[i] = "ACGT"[next() & 3];
        sigma64[i] = next() & 63;
    }
    /* acgt with its 8 bytes at 2000, which take the branch-free entry, back
     * to back over 0.35-0.48 N and 0.80-0.93 N: the orbits and parts (see
     * split in the kernel) that scan there fill their buffers. */
    memcpy(dense, acgt, N);
    for (int64_t i = N * 35 / 100; i + 8 <= N * 48 / 100; i += 8)
        memcpy(dense + i, acgt + 2000, 8);
    for (int64_t i = N * 80 / 100; i + 8 <= N * 93 / 100; i += 8)
        memcpy(dense + i, acgt + 2000, 8);
    /* Runs of 32 7s every 4 KiB of sigma64: few enough positions of 7^8 for
     * the helper to take a part, and each thread skips the rest of each run. */
    memcpy(sevens, sigma64, N);
    for (int64_t i = 1000; i < N; i += 4096)
        memset(sevens + i, 7, 32);
    /* Zero runs of 1280-1791 bytes between 384-639 random non-zero bytes. */
    for (int64_t i = 0; i < N;) {
        int64_t run = 1280 + next() % 512, noise = 384 + next() % 256;
        for (int64_t r = 0; r < run && i < N; r++)
            zero_runs[i++] = 0;
        for (int64_t r = 0; r < noise && i < N; r++)
            zero_runs[i++] = 1 + next() % 255;
    }
    /* sigma16 and then zeros4 are drawn after the texts above, each after
     * those of earlier cases, so that those stay as they were. */
    for (int64_t i = 0; i < LONG_N; i++)
        sigma16[i] = next() & 15;
    /* Stretches of 200-599 bytes of 4 symbols, 0 among them, between zero
     * runs of 40-199 bytes. */
    for (int64_t i = 0; i < N;) {
        int64_t noise = 200 + next() % 400, run = 40 + next() % 160;
        for (int64_t r = 0; r < noise && i < N; r++)
            zeros4[i++] = next() & 3;
        for (int64_t r = 0; r < run && i < N; r++)
            zeros4[i++] = 0;
    }
    int failed = check_all(0) | check_all(2000);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(sched_getcpu(), &one);
    if (sched_setaffinity(0, sizeof one, &one))
        perror("sched_setaffinity");
    else
        failed |= check_all(0);
    return failed;
}
