/* Two-row DP over the (n1+1) x (n2+1) edit lattice: the compiled form of
 * wsadist.kernel.dp_interpreted, whose docstring documents the cost
 * tables and m.  One entry, wsadist_pairs, scores the adjacent pairs of a
 * document; a single pair is a document of two lines.  A pair with an
 * empty line is scored in the lattice too: an empty first line makes row 0
 * the last row, an empty second line column 0 the last column.
 *
 * Given a detection threshold in (0, 1], it computes d exactly only for
 * the pairs that can reach it, and marks the rest -1.  A pair's cutoff
 * T is the largest d with 1.0 - d / D >= threshold, D the heavier line's
 * weight, as Python computes it.  A pair is ruled out with no DP when its
 * length bound -- every character of one line that no diagonal move
 * takes pays at least its whitespace cost -- exceeds T.  The rest run in
 * a band: an interior cell with |i - j| * min_indel > T, min_indel the
 * cheapest indel cost, is skipped; the last row and the last column stay
 * full, since whitespace moves there can be free.  Threshold 0 is no
 * cutoff: every d is exact.
 *
 * Requires non-negative costs and every path sum to fit in int64 (the
 * caller checks); the cells skipped by a cutoff hold T + 1 <= D, which
 * adds no larger sum.  Returns -1 when out of memory, or -2 when a symbol
 * code lies outside the alphabet, m is not in [0, k], the line offsets
 * fall outside the codes or out of order, or the threshold is outside
 * [0, 1].
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

/* The least d that rules a pair of weight `heavier` out at `threshold`,
 * T + 1, or INT64_MAX for no cutoff: at threshold 0, at weight 0, past
 * 2^53, where a double no longer holds every weight, or where doubles
 * are evaluated wider than double.  FLT_EVAL_METHOD 16, which GCC sets
 * with AVX512-FP16 (-march=native on such a CPU), widens only _Float16
 * and evaluates double as double, as 0 does. */
static int64_t cutoff(double threshold, int64_t heavier)
{
    if ((FLT_EVAL_METHOD != 0 && FLT_EVAL_METHOD != 16) || threshold <= 0.0 || heavier == 0
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
 * as it was found. */
static int64_t lattice(int64_t n1, const uint32_t *code1, int64_t n2, const uint32_t *code2,
                       int64_t k, const int64_t *indel, const int64_t *ws_del,
                       const int64_t *ws_ins, const int64_t *rep, int64_t m, int ws_agnostic,
                       int64_t limit, int64_t width, int64_t *prev, int64_t *cur,
                       int64_t *scratch)
{
    /* with n1 = 0, row 0 is the last row: insertions meet imagined whitespace */
    const int64_t *first = ws_agnostic && n1 == 0 ? ws_ins : indel;
    prev[0] = 0;
    for (int64_t j = 1; j <= n2; j++)
        prev[j] = prev[j - 1] + first[code2[j - 1]];
    /* the interior columns lo..hi that the row above computed: all of row 0 */
    int64_t lo = 1, hi = n2 - 1;
    for (int64_t i = 1; i <= n1; i++) {
        uint32_t a = code1[i - 1];
        int64_t dcost = indel[a];
        if (n2 == 0) {
            /* column 0 is the last column: deletions meet imagined whitespace */
            prev[0] += ws_agnostic ? ws_del[a] : dcost;
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
            /* on the last row, insertions meet imagined whitespace */
            if (ws_agnostic)
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
        if (n2 > 1 && lo > n2 - 1)
            cur[n2 - 1] = limit;  /* the band has passed the last interior column */
        else if (hi < n2 - 1)
            cur[hi + 1] = cur[n2 - 1] = limit;  /* ... or not reached it */
        /* on the last column, deletions meet imagined whitespace */
        uint32_t b = code2[n2 - 1];
        cur[n2] = cell(prev[n2], ws_agnostic ? ws_del[a] : dcost, cur[n2 - 1], icost[b],
                       prev[n2 - 1], row[b]);
        if (a >= m)
            scratch[a] = rep[m * k + a];
        int64_t *tmp = prev;
        prev = cur;
        cur = tmp;
    }
    return prev[n2] < limit ? prev[n2] : -1;
}

/* A document of `lines` lines, line i being codes[offsets[i]:offsets[i+1]]
 * of the ncodes codes, all in one alphabet of k symbols.  Writes each
 * line's weight, the sum of ws_del over its codes, to weights[i], and for
 * each pair i with want[i] set, the distance from line i to line i + 1 to
 * dists[i]: ws-agnostic (deletions against ws_del, insertions against
 * ws_ins) when ws_agnostic is set, else the classical one.  With a
 * threshold above 0, a pair that cannot reach it gets -1 there instead.
 * Either line of a pair may be empty.  Returns 0, or -1 or -2 as the
 * header says. */
int64_t wsadist_pairs(int64_t lines, const int64_t *offsets, int64_t ncodes,
                      const uint32_t *codes, int64_t k, const int64_t *indel,
                      const int64_t *ws_del, const int64_t *ws_ins, const int64_t *rep,
                      int64_t m, const unsigned char *want, int64_t *weights, int64_t *dists,
                      int ws_agnostic, double threshold)
{
    if (m < 0 || m > k || lines < 0 || offsets[0] < 0 || !(threshold >= 0.0 && threshold <= 1.0))
        return -2;
    int64_t longest = 0;
    for (int64_t i = 0; i < lines; i++) {
        int64_t n = offsets[i + 1] - offsets[i], weight = 0;
        if (n < 0 || offsets[i + 1] > ncodes)
            return -2;
        for (const uint32_t *c = codes + offsets[i]; c < codes + offsets[i + 1]; c++) {
            if (*c >= k)
                return -2;
            weight += ws_del[*c];
        }
        weights[i] = weight;
        if (n > longest)
            longest = n;
    }
    /* every off-diagonal interior move pays at least this */
    int64_t min_indel = INT64_MAX;
    for (int64_t c = 0; c < k; c++)
        if (indel[c] < min_indel)
            min_indel = indel[c];
    /* two rows of longest + 1 cells, then a copy of the shared row m for
     * the symbols from m on */
    int64_t *base = malloc((2 * (size_t)(longest + 1) + (size_t)k) * sizeof *base);
    if (base == NULL)
        return -1;
    if (m < k)
        memcpy(base + 2 * (longest + 1), rep + m * k, (size_t)k * sizeof *base);
    for (int64_t i = 0; i + 1 < lines; i++) {
        if (!want[i])
            continue;
        const uint32_t *code1 = codes + offsets[i], *code2 = codes + offsets[i + 1];
        int64_t n1 = offsets[i + 1] - offsets[i], n2 = offsets[i + 2] - offsets[i + 1];
        int64_t limit = cutoff(threshold, weights[i] > weights[i + 1] ? weights[i] : weights[i + 1]);
        int64_t width = INT64_MAX;
        if (limit < INT64_MAX) {
            /* d >= the weight of line i less what n2 diagonal moves can
             * take, and the same for line i + 1 */
            int64_t most_del = 0, ins = 0, most_ins = 0;
            for (int64_t j = 0; j < n1; j++)
                if (ws_del[code1[j]] > most_del)
                    most_del = ws_del[code1[j]];
            for (int64_t j = 0; j < n2; j++) {
                ins += ws_ins[code2[j]];
                if (ws_ins[code2[j]] > most_ins)
                    most_ins = ws_ins[code2[j]];
            }
            if (weights[i] - n2 * most_del >= limit || ins - n1 * most_ins >= limit) {
                dists[i] = -1;
                continue;
            }
            if (min_indel > 0)
                width = (limit - 1) / min_indel;
        }
        dists[i] = lattice(n1, code1, n2, code2, k, indel, ws_del, ws_ins, rep, m, ws_agnostic,
                           limit, width, base, base + n2 + 1, base + 2 * (longest + 1));
    }
    free(base);
    return 0;
}
