/* Two-row DP over the (n1+1) x (n2+1) edit lattice: the compiled form of
 * wsadist._interpreted.dp_interpreted, whose docstring documents the cost
 * tables and m.  There is one lattice: its last column charges a deletion
 * ws_del, its last row an insertion ws_ins, and every other move indel or
 * rep.  Edge tables of whitespace costs give the ws-agnostic distance,
 * the indel table as both the classical one.  One entry, wsadist_pairs,
 * takes the four tables as one block and one buffer of codes that holds
 * two streams, A and B.  It finds the lines of each stream itself -- they
 * end at a break code, or at the stream's end -- and scores line i of A
 * against line i of B for each of the pairs the caller asks for; a line
 * past a stream's last counts as empty.  The lines of two files are the
 * two streams; a document's adjacent lines are the document as A and the
 * document from its second line on as B; a single pair is two streams
 * with no break.  A pair with an empty line is scored in the lattice too:
 * an empty first line makes row 0 the last row, an empty second line
 * column 0 the last column.
 *
 * In the pass that finds a line, the kernel also sums its weight, the
 * ws_del of its codes, and, given a table of the blank codes, finds
 * whether a code of it is not blank.  A pair with a blank line is then
 * not scored, nor is a pair of more than max_cells cells.
 *
 * Given a detection threshold in (0, 1], it computes d exactly only for
 * the pairs that can reach it, and marks the rest -1.  A pair's cutoff
 * T is the largest d with 1.0 - d / D >= threshold, D the heavier line's
 * weight, as Python computes it, so that -1 means exactly a similarity
 * below the threshold wherever cutoff() gives a limit.  A pair is ruled
 * out with no DP when its length bound -- every character of one line
 * that no diagonal move takes pays at least its edge cost -- exceeds T.
 * The rest run in a band: an interior cell with |i - j| * min_indel > T,
 * min_indel the cheapest indel cost, is skipped; the last row and the
 * last column stay full, since edge moves there can be free.  Threshold
 * 0 is no cutoff: every d is exact.
 *
 * A scored pair of two identical lines gets d = 0 with no DP: most line
 * pairs of two versions of a text are unchanged.  Other pairs skip the
 * prefix of q codes that their lines share, and are scored on the
 * lattice after it, when the cost block passes one check, made once a
 * call: the dearest indel cost less the cheapest is at most the cheapest
 * replacement of a symbol by another, every column of row m counted.
 * Then indel(a) <= indel(x) + rep(a, x) and indel(a) <= indel(x) +
 * rep(x, a) for all a and x, so when both lines start with x, an optimal
 * path that does not take the diagonal (0,0) -> (1,1) can be rerouted
 * through it at no extra cost, edge costs being no more than indel costs;
 * by induction one passes (q,q), and d is exact.  A line the prefix
 * empties leaves the other's edge costs: a line against itself with
 * trailing whitespace costs its ws_ins or ws_del sum, 0 for the
 * ws-agnostic distance, in no cells.  The length bound is taken on the
 * lines after the prefix, and D and the cutoff on the whole lines.  A
 * shared suffix is not skipped: the last row and column charge edge
 * costs, which can be less than the indel costs that the same moves pay
 * inside the lattice, so skipping a suffix would price them wrong.
 * Without the check a skip can be wrong: with indel a = 9, x = 1 and
 * rep(a, x) = rep(x, a) = 0, "xaxaa" is 11 from "xa" but "xaa" is 19 from
 * "".
 *
 * Requires non-negative costs, a symbol replaced by itself to cost 0 (in
 * its own row of rep, and in its own column of the shared row m, as
 * wsadist.kernel.alphabet_costs builds them; the shortcut for identical
 * lines and the prefix skip rest on it), no edge cost above its symbol's
 * indel cost (the length bound and the prefix skip rest on it, for any
 * such edge tables), and every path
 * sum to fit in int64 (the caller checks); the cells skipped by a cutoff
 * hold T + 1 <= D, which adds no larger sum.  Returns the number of
 * lattice cells computed, or -1 when out of memory, or -2 when a code it
 * reads lies outside the alphabet, m is not in [0, k], a stream lies
 * outside the codes, the pair count or max_cells is negative, or the
 * threshold is outside [0, 1].
 *
 * A second entry, wsadist_rows, writes the text of `wsadist dist`'s
 * output from the dists that wsadist_pairs wrote: each line number and
 * its cost between pieces that the caller passes, in one caller buffer
 * with the caller's head and tail.  It knows no output format: the
 * pieces make the rows JSON objects or tab-separated lines.
 */
#include <float.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

static inline int64_t cell(int64_t up, int64_t dcost, int64_t left, int64_t icost,
                           int64_t diag, int64_t rcost)
{
    int64_t best = up + dcost;
    if (left + icost < best)
        best = left + icost;
    if (diag + rcost < best)
        best = diag + rcost;
    return best;
}

/* 1 when doubles are evaluated as double, so that cutoff() computes
 * 1.0 - d / D as Python does; where not, it gives no limit, and
 * wsadist.kernel, which reads this at load, rules the pairs out itself.
 * FLT_EVAL_METHOD 16, which GCC sets with AVX512-FP16 (-march=native on
 * such a CPU), widens only _Float16 and evaluates double as double, as 0
 * does. */
const int wsadist_exact_cutoff = FLT_EVAL_METHOD == 0 || FLT_EVAL_METHOD == 16;

/* The least d that rules a pair of weight `heavier` out at `threshold`,
 * T + 1, or INT64_MAX for no cutoff: at threshold 0, at weight 0, past
 * 2^53, where a double no longer holds every weight, or where doubles
 * are evaluated wider than double. */
static int64_t cutoff(double threshold, int64_t heavier)
{
    if (!wsadist_exact_cutoff || threshold <= 0.0 || heavier == 0
        || heavier > (INT64_C(1) << 53))
        return INT64_MAX;
    double weight = (double)heavier;
    /* T is near (1 - threshold) * heavier; d = 0 always passes and
     * d = heavier never does */
    int64_t t = (int64_t)((1.0 - threshold) * weight);
    while (t > 0 && !(1.0 - (double)t / weight >= threshold))
        t--;
    while (1.0 - (double)(t + 1) / weight >= threshold)
        t++;
    return t + 1;
}

/* One pair of codes already checked against k, over two rows of n2 + 1
 * cells: its distance when below `limit`, else -1.  Interior cells more
 * than `width` off the diagonal cost `limit` or more; they hold `limit`
 * where a later cell reads them.  scratch holds row m of rep, and is left
 * as it was found.  Adds the cells it computes, those of rows and columns
 * 1 on, to *cells. */
static int64_t lattice(int64_t n1, const uint32_t *code1, int64_t n2, const uint32_t *code2,
                       int64_t k, const int64_t *indel, const int64_t *ws_del,
                       const int64_t *ws_ins, const int64_t *rep, int64_t m, int64_t limit,
                       int64_t width, int64_t *prev, int64_t *cur, int64_t *scratch,
                       int64_t *cells)
{
    /* with n1 = 0, row 0 is the last row */
    const int64_t *first = n1 == 0 ? ws_ins : indel;
    prev[0] = 0;
    for (int64_t j = 1; j <= n2; j++)
        prev[j] = prev[j - 1] + first[code2[j - 1]];
    /* the interior columns lo..hi that the row above computed: all of row 0 */
    int64_t lo = 1, hi = n2 - 1;
    for (int64_t i = 1; i <= n1; i++) {
        uint32_t a = code1[i - 1];
        int64_t dcost = indel[a];
        if (n2 == 0) {
            prev[0] += ws_del[a];  /* column 0 is the last column */
            continue;
        }
        const int64_t *icost = indel;
        if (i < n1) {
            lo = width < i - 1 ? i - width : 1;
            hi = width < n2 - 1 - i ? i + width : n2 - 1;
        } else {
            /* the last row is full: the row above holds `limit` off its band */
            for (int64_t j = 1; j < lo && j < n2; j++)
                prev[j] = limit;
            for (int64_t j = hi + 1; j < n2; j++)
                prev[j] = limit;
            lo = 1;
            hi = n2 - 1;
            icost = ws_ins;
        }
        /* a symbol from m on reads the shared row, with its own column 0 */
        const int64_t *row = a < m ? rep + a * k : scratch;
        if (a >= m)
            scratch[a] = 0;
        /* off the band, column 0 is past the cutoff too: it stands in for lo - 1 */
        int64_t left = cur[0] = prev[0] + dcost;
        for (int64_t j = lo; j <= hi; j++) {
            uint32_t b = code2[j - 1];
            cur[j] = left = cell(prev[j], dcost, left, icost[b], prev[j - 1], row[b]);
        }
        /* the band's interior cells and the last column's */
        *cells += (hi >= lo ? hi - lo + 1 : 0) + 1;
        if (n2 > 1 && lo > n2 - 1)
            cur[n2 - 1] = limit;  /* the band has passed the last interior column */
        else if (hi < n2 - 1)
            cur[hi + 1] = cur[n2 - 1] = limit;  /* ... or not reached it */
        uint32_t b = code2[n2 - 1];
        cur[n2] = cell(prev[n2], ws_del[a], cur[n2 - 1], icost[b], prev[n2 - 1], row[b]);
        if (a >= m)
            scratch[a] = rep[m * k + a];
        int64_t *tmp = prev;
        prev = cur;
        cur = tmp;
    }
    return prev[n2] < limit ? prev[n2] : -1;
}

/* The line of a stream that starts at codes[at], the stream ending at
 * codes[end]: where it ends, at the next break code or at the stream's
 * end, or -1 for a code outside the alphabet.  Writes its weight, the sum
 * of ws_del over its codes, to *weight, and whether a code of it is not
 * blank to *filled (with no table of blank codes, whether it has one). */
static int64_t scan(const uint32_t *codes, int64_t at, int64_t end, int64_t brk, int64_t k,
                    const int64_t *ws_del, const unsigned char *blank, int64_t *weight,
                    int *filled)
{
    int64_t sum = 0;
    int any = 0;
    for (; at < end && codes[at] != brk; at++) {
        uint32_t c = codes[at];
        if (c >= k)
            return -1;
        sum += ws_del[c];
        any |= blank == NULL || !blank[c];
    }
    *weight = sum;
    *filled = any;
    return at;
}

/* Two streams of codes in one alphabet of k symbols, A the first a_end of
 * the ncodes codes and B those from b_start on, each split into lines at
 * the code brk (none when brk is outside [0, k)), and the cost tables in
 * one block: indel, ws_del and ws_ins, k each, then the (m+1) x k rep.
 * The integers come in one array, `sizes`, since ctypes converts an int64
 * argument at about three times the cost of a pointer: pairs, ncodes,
 * a_end, b_start, brk, max_cells, k and m.
 * For each of `pairs` pairs, line i of A and line i of B, writes the
 * heavier of the two lines' weights to heavier[i], and to status[i] 0 when
 * `blank`, a table of k flags, is given and either line has no code that
 * is not blank, 2 when the pair has more than max_cells cells, else 1
 * when it scores the pair, or 3 when the pair falls below a threshold
 * above 0.  For a scored pair it writes the distance from A's line to
 * B's to dists[i], -1 for status 3; it writes no other dists.  Either
 * line of a pair may be empty; two identical lines, empty ones too, get
 * 0 with no DP, and other pairs may skip their shared prefix, as the
 * header says.
 * Returns the cells computed, or -1 or -2 as the header says. */
int64_t wsadist_pairs(const int64_t *sizes, const uint32_t *codes, const unsigned char *blank,
                      const int64_t *costs, unsigned char *status, int64_t *heavier,
                      int64_t *dists, double threshold)
{
    int64_t pairs = sizes[0], ncodes = sizes[1], a_end = sizes[2], b_start = sizes[3];
    int64_t brk = sizes[4], max_cells = sizes[5], k = sizes[6], m = sizes[7];
    const int64_t *indel = costs, *ws_del = indel + k, *ws_ins = ws_del + k, *rep = ws_ins + k;
    if (m < 0 || m > k || pairs < 0 || a_end < 0 || a_end > ncodes || b_start < 0
        || b_start > ncodes || max_cells < 0 || !(threshold >= 0.0 && threshold <= 1.0))
        return -2;
    if (brk >= k)
        brk = -1;  /* no code equals it: a code past the alphabet is refused, not a break */
    /* every off-diagonal interior move pays at least min_indel */
    int64_t min_indel = INT64_MAX, most_indel = 0, least_rep = INT64_MAX;
    for (int64_t c = 0; c < k; c++) {
        if (indel[c] < min_indel)
            min_indel = indel[c];
        if (indel[c] > most_indel)
            most_indel = indel[c];
    }
    /* the cheapest replacement of a symbol by another; each column of row m counts */
    for (int64_t a = 0; a <= m; a++)
        for (int64_t b = 0; b < k; b++)
            if ((a == m || a != b) && rep[a * k + b] < least_rep)
                least_rep = rep[a * k + b];
    /* with no alphabet, nothing to skip: 0 - INT64_MAX is no overflow */
    int skip_prefix = most_indel - min_indel <= least_rep;
    /* a copy of the shared row m for the symbols from m on, then two rows
     * of longest + 1 cells: allocated for the first pair that needs them,
     * and grown as longer second lines come */
    int64_t longest = 0, cells = 0;
    int64_t *base = NULL;
    /* where the last line of B began and ended, its weight, and whether it
     * is filled: when B is A from a line on, that line is A's next */
    int64_t from = -1, to = 0, weight = 0;
    int filled = 0;
    for (int64_t i = 0, at1 = 0, at2 = b_start; i < pairs; i++) {
        int64_t w1, w2, end1, end2;
        int f1, f2;
        if (at1 == from && a_end == ncodes) {
            end1 = to;
            w1 = weight;
            f1 = filled;
        } else if ((end1 = scan(codes, at1, a_end, brk, k, ws_del, blank, &w1, &f1)) < 0) {
            free(base);
            return -2;
        }
        if ((end2 = scan(codes, at2, ncodes, brk, k, ws_del, blank, &w2, &f2)) < 0) {
            free(base);
            return -2;
        }
        from = at2;
        to = end2;
        weight = w2;
        filled = f2;
        int64_t n1 = end1 - at1, n2 = end2 - at2;
        const uint32_t *code1 = codes + at1, *code2 = codes + at2;
        /* the next lines start past the break, if a line ended at one */
        at1 = end1 < a_end ? end1 + 1 : end1;
        at2 = end2 < ncodes ? end2 + 1 : end2;
        heavier[i] = w1 > w2 ? w1 : w2;
        if (blank != NULL && !(f1 && f2)) {
            status[i] = 0;
            continue;
        }
        if (n1 > 0 && n2 > max_cells / n1) {
            status[i] = 2;
            continue;
        }
        status[i] = 1;
        int64_t q = 0, shorter = n1 < n2 ? n1 : n2;
        while (q < shorter && code1[q] == code2[q])
            q++;
        if (q == n1 && q == n2) {
            dists[i] = 0;
            continue;
        }
        if (skip_prefix) {
            n1 -= q;
            n2 -= q;
            code1 += q;
            code2 += q;
        }
        int64_t limit = cutoff(threshold, heavier[i]);
        int64_t width = INT64_MAX;
        if (limit < INT64_MAX) {
            /* d >= the weight of A's line less what n2 diagonal moves can
             * take, and the same for B's line, both after any prefix skipped */
            int64_t del = 0, most_del = 0, ins = 0, most_ins = 0;
            for (int64_t j = 0; j < n1; j++) {
                del += ws_del[code1[j]];
                if (ws_del[code1[j]] > most_del)
                    most_del = ws_del[code1[j]];
            }
            for (int64_t j = 0; j < n2; j++) {
                ins += ws_ins[code2[j]];
                if (ws_ins[code2[j]] > most_ins)
                    most_ins = ws_ins[code2[j]];
            }
            if (del - n2 * most_del >= limit || ins - n1 * most_ins >= limit) {
                status[i] = 3;
                dists[i] = -1;
                continue;
            }
            if (min_indel > 0)
                width = (limit - 1) / min_indel;
        }
        if (base == NULL || n2 > longest) {
            longest = n2 > 2 * longest ? n2 : 2 * longest;
            int64_t *grown = realloc(base, ((size_t)k + 2 * (size_t)(longest + 1)) * sizeof *base);
            if (grown == NULL) {
                free(base);
                return -1;
            }
            if (base == NULL && m < k)
                memcpy(grown, rep + m * k, (size_t)k * sizeof *base);
            base = grown;
        }
        dists[i] = lattice(n1, code1, n2, code2, k, indel, ws_del, ws_ins, rep, m, limit, width,
                           base + k, base + k + n2 + 1, base, &cells);
        if (dists[i] < 0)
            status[i] = 3;
    }
    free(base);
    return cells;
}

/* The number of characters of v in decimal, its minus sign counted. */
static int64_t width(int64_t v)
{
    /* the magnitude in unsigned arithmetic: INT64_MIN negates no signed value */
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    int64_t w = 1 + (v < 0);
    for (; u >= 10; u /= 10)
        w++;
    return w;
}

/* Writes v in decimal, width(v) characters, at p; returns their end. */
static char *put_int(char *p, int64_t v)
{
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    char *end = p + width(v);
    p = end;
    do {
        *--p = (char)('0' + u % 10);
        u /= 10;
    } while (u != 0);
    if (v < 0)
        *--p = '-';
    return end;
}

/* Copies the len characters at s to p; returns their end. */
static char *put(char *p, const char *s, size_t len)
{
    while (len-- > 0)
        *p++ = *s++;
    return p;
}

/* The text of n rows, one for each of dists[0..n): `head`, then row i,
 * led by `sep` from the second row on -- `before`, i, `between`, dists[i],
 * `after` -- then `tail`.  The pieces are NUL-terminated, the numbers
 * written in decimal.  It knows no output format: the caller's pieces
 * make the rows JSON objects or lines of text.  With out NULL it writes
 * nothing and returns the text's size; else it writes the text, with no
 * NUL, into out's `size` bytes and returns its size, or -2, having
 * written nothing, when the text would not fit.  Returns -2 too for a
 * negative n. */
int64_t wsadist_rows(const int64_t *dists, int64_t n, const char *head, const char *before,
                     const char *between, const char *after, const char *sep, const char *tail,
                     char *out, int64_t size)
{
    if (n < 0)
        return -2;
    size_t lh = strlen(head), lb = strlen(before), lm = strlen(between), la = strlen(after);
    size_t ls = strlen(sep), lt = strlen(tail);
    int64_t need = (int64_t)(lh + lt) + (n > 0 ? (n - 1) * (int64_t)ls : 0);
    for (int64_t i = 0; i < n; i++)
        need += (int64_t)(lb + lm + la) + width(i) + width(dists[i]);
    if (out == NULL)
        return need;
    if (need > size)
        return -2;
    char *p = put(out, head, lh);
    for (int64_t i = 0; i < n; i++) {
        if (i > 0)
            p = put(p, sep, ls);
        p = put(p, before, lb);
        p = put_int(p, i);
        p = put(p, between, lm);
        p = put_int(p, dists[i]);
        p = put(p, after, la);
    }
    put(p, tail, lt);
    return need;
}
