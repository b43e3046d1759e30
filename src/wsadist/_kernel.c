/* Two-row DP over the (n1+1) x (n2+1) edit lattice: the compiled form of
 * wsadist.kernel.dp_interpreted, whose docstring documents the arguments.
 *
 * Requires n1 >= 1, n2 >= 1, non-negative costs, and every path sum to
 * fit in int64 (the caller checks).  Returns the distance, -1 when out of
 * memory, or -2 when a symbol code lies outside its alphabet, m1 is not
 * in [0, k1], or m1 < k1 while the two alphabets differ in size.
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

int64_t wsadist_dp(int64_t n1, const uint32_t *code1, int64_t n2, const uint32_t *code2,
                   int64_t k1, const int64_t *indel1, const int64_t *ws1,
                   int64_t k2, const int64_t *indel2, const int64_t *ws2,
                   const int64_t *rep, int64_t m1, int ws_agnostic)
{
    if (m1 < 0 || m1 > k1 || (m1 < k1 && k1 != k2))
        return -2;
    /* two rows, then a copy of the shared row m1 when some symbols use it */
    size_t shared = m1 < k1 ? (size_t)k2 : 0;
    int64_t *base = malloc((2 * (size_t)(n2 + 1) + shared) * sizeof *base);
    if (base == NULL)
        return -1;
    int64_t *prev = base, *cur = base + n2 + 1, *scratch = cur + n2 + 1;
    if (shared)
        memcpy(scratch, rep + m1 * k2, shared * sizeof *scratch);
    int64_t result = -2;
    prev[0] = 0;
    for (int64_t j = 1; j <= n2; j++) {
        if (code2[j - 1] >= k2)
            goto done;
        prev[j] = prev[j - 1] + indel2[code2[j - 1]];
    }
    for (int64_t i = 1; i <= n1; i++) {
        uint32_t a = code1[i - 1];
        if (a >= k1)
            goto done;
        int64_t dcost = indel1[a];
        /* on the last row, insertions meet imagined whitespace */
        const int64_t *icost = (ws_agnostic && i == n1) ? ws2 : indel2;
        /* a symbol from m1 on reads the shared row, with its own column 0 */
        const int64_t *row = a < m1 ? rep + a * k2 : scratch;
        if (a >= m1)
            scratch[a] = 0;
        int64_t left = cur[0] = prev[0] + dcost;
        for (int64_t j = 1; j < n2; j++) {
            uint32_t b = code2[j - 1];
            cur[j] = left = cell(prev[j], dcost, left, icost[b], prev[j - 1], row[b]);
        }
        /* on the last column, deletions meet imagined whitespace */
        uint32_t b = code2[n2 - 1];
        cur[n2] = cell(prev[n2], ws_agnostic ? ws1[a] : dcost, left, icost[b],
                       prev[n2 - 1], row[b]);
        if (a >= m1)
            scratch[a] = rep[m1 * k2 + a];
        int64_t *tmp = prev;
        prev = cur;
        cur = tmp;
    }
    result = prev[n2];
done:
    free(base);
    return result;
}
