/* Two-row DP over the (n1+1) x (n2+1) edit lattice: the compiled form of
 * wsadist.kernel.dp_interpreted, whose docstring documents the cost
 * tables and m.  One entry, wsadist_pairs, scores the adjacent pairs of a
 * document; a single pair is a document of two lines.
 *
 * Requires non-negative costs and every path sum to fit in int64 (the
 * caller checks).  Returns -1 when out of memory, or -2 when a symbol
 * code lies outside the alphabet, m is not in [0, k], the line offsets
 * fall outside the codes or out of order, or a wanted pair has an empty
 * line.
 */
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

/* One pair, n1 >= 1 and n2 >= 1, of codes already checked against k, over
 * two rows of n2 + 1 cells.  scratch holds row m of rep, and is left as it
 * was found. */
static int64_t lattice(int64_t n1, const uint32_t *code1, int64_t n2, const uint32_t *code2,
                       int64_t k, const int64_t *indel, const int64_t *ws_del,
                       const int64_t *ws_ins, const int64_t *rep, int64_t m, int ws_agnostic,
                       int64_t *prev, int64_t *cur, int64_t *scratch)
{
    prev[0] = 0;
    for (int64_t j = 1; j <= n2; j++)
        prev[j] = prev[j - 1] + indel[code2[j - 1]];
    for (int64_t i = 1; i <= n1; i++) {
        uint32_t a = code1[i - 1];
        int64_t dcost = indel[a];
        /* on the last row, insertions meet imagined whitespace */
        const int64_t *icost = (ws_agnostic && i == n1) ? ws_ins : indel;
        /* a symbol from m on reads the shared row, with its own column 0 */
        const int64_t *row = a < m ? rep + a * k : scratch;
        if (a >= m)
            scratch[a] = 0;
        int64_t left = cur[0] = prev[0] + dcost;
        for (int64_t j = 1; j < n2; j++) {
            uint32_t b = code2[j - 1];
            cur[j] = left = cell(prev[j], dcost, left, icost[b], prev[j - 1], row[b]);
        }
        /* on the last column, deletions meet imagined whitespace */
        uint32_t b = code2[n2 - 1];
        cur[n2] = cell(prev[n2], ws_agnostic ? ws_del[a] : dcost, left, icost[b],
                       prev[n2 - 1], row[b]);
        if (a >= m)
            scratch[a] = rep[m * k + a];
        int64_t *tmp = prev;
        prev = cur;
        cur = tmp;
    }
    return prev[n2];
}

/* A document of `lines` lines, line i being codes[offsets[i]:offsets[i+1]]
 * of the ncodes codes, all in one alphabet of k symbols.  Writes each
 * line's weight, the sum of ws_del over its codes, to weights[i], and for
 * each pair i with want[i] set, the distance from line i to line i + 1 to
 * dists[i]: ws-agnostic (deletions against ws_del, insertions against
 * ws_ins) when ws_agnostic is set, else the classical one.  A wanted pair
 * needs two non-empty lines.  Returns 0. */
int64_t wsadist_pairs(int64_t lines, const int64_t *offsets, int64_t ncodes,
                      const uint32_t *codes, int64_t k, const int64_t *indel,
                      const int64_t *ws_del, const int64_t *ws_ins, const int64_t *rep,
                      int64_t m, const unsigned char *want, int64_t *weights, int64_t *dists,
                      int ws_agnostic)
{
    if (m < 0 || m > k || lines < 0 || offsets[0] < 0)
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
    /* two rows of longest + 1 cells, then a copy of the shared row m for
     * the symbols from m on */
    int64_t *base = malloc((2 * (size_t)(longest + 1) + (size_t)k) * sizeof *base);
    if (base == NULL)
        return -1;
    if (m < k)
        memcpy(base + 2 * (longest + 1), rep + m * k, (size_t)k * sizeof *base);
    int64_t result = 0;
    for (int64_t i = 0; i + 1 < lines; i++) {
        if (!want[i])
            continue;
        int64_t n1 = offsets[i + 1] - offsets[i], n2 = offsets[i + 2] - offsets[i + 1];
        if (n1 < 1 || n2 < 1) {
            result = -2;
            break;
        }
        dists[i] = lattice(n1, codes + offsets[i], n2, codes + offsets[i + 1], k, indel, ws_del,
                           ws_ins, rep, m, ws_agnostic, base, base + n2 + 1,
                           base + 2 * (longest + 1));
    }
    free(base);
    return result;
}
