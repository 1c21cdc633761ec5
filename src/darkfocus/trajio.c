/* Row loops of darkfocus._text, the writer and reader of every float table.

   df_format_rows writes rows of blank-separated doubles, each in the text of
   Python's repr: the shortest decimal that reads back to the same double,
   found by Ryu (U. Adams, PLDI 2018), in repr's layout.  df_parse_rows reads
   rows of plain decimal numbers into the doubles a correctly rounded strtod
   gives, by the Eisel-Lemire algorithm (D. Lemire, Softw. Pract. Exp. 2021);
   a token of more than 19 significant digits, or one the fast path cannot
   decide, goes to strtod itself.  Text outside the plain grammar is reported
   rather than guessed at, so that the caller can hand the file to
   numpy.loadtxt.  The power tables both algorithms need are computed exactly
   by darkfocus._compiled and passed in as (low, high) pairs of 64-bit words.
   The 64 x 64 -> 128-bit products use the compiler's unsigned __int128. */

#include <locale.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned __int128 u128;

/* ---- shortest round-trip digits (Ryu) ---------------------------------- */

enum { MANTISSA_BITS = 52, EXPONENT_BIAS = 1023, POW5_BITS = 125 };

/* floor(e log10 2), floor(e log10 5) and the bit length of 5^e, for the
   exponent ranges of a double */
static int log10_pow2(int e) { return (int)(((uint32_t)e * 78913) >> 18); }
static int log10_pow5(int e) { return (int)(((uint32_t)e * 732923) >> 20); }
static int pow5_bits(int e) { return (int)((((uint32_t)e * 1217359) >> 19) + 1); }

static int multiple_of_pow5(uint64_t v, int p)
{
    int count = 0;
    while (v % 5 == 0) {
        v /= 5;
        count++;
    }
    return count >= p;
}

static int multiple_of_pow2(uint64_t v, int p) { return (v & ((1ull << p) - 1)) == 0; }

/* (m * mul) >> j for the 128-bit multiplier mul = (low, high), j >= 64 */
static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int j)
{
    u128 low = (u128)m * mul[0];
    u128 high = (u128)m * mul[1];
    return (uint64_t)(((low >> 64) + high) >> (j - 64));
}

/* The shortest digits of the finite, nonzero double with these IEEE fields
   that read back to it, the nearest such to its value (ties to even);
   returns them as an integer and sets *exp10: the double is digits x 10^exp10.
   inv5[q] = 2^(bits(5^q) - 1 + 125) / 5^q + 1 and pow5[i] = 5^i scaled to
   125 bits. */
static uint64_t shortest(uint64_t mantissa, int exponent, const uint64_t *inv5,
                         const uint64_t *pow5, int *exp10)
{
    int e2;
    uint64_t m2;
    if (exponent == 0) {
        e2 = 1 - EXPONENT_BIAS - MANTISSA_BITS - 2;
        m2 = mantissa;
    } else {
        e2 = exponent - EXPONENT_BIAS - MANTISSA_BITS - 2;
        m2 = (1ull << MANTISSA_BITS) | mantissa;
    }
    int accept_bounds = (m2 & 1) == 0;
    /* the interval of decimals that round to the double is [mm, mp] / 4 in
       units of 2^e2, with mm closer when the double is a power of two */
    uint64_t mv = 4 * m2;
    int mm_shift = mantissa != 0 || exponent <= 1;

    uint64_t vr, vp, vm;
    int e10;
    int vm_trailing_zeros = 0, vr_trailing_zeros = 0;
    if (e2 >= 0) {
        int q = log10_pow2(e2) - (e2 > 3);
        int k = POW5_BITS + pow5_bits(q) - 1;
        int i = -e2 + q + k;
        const uint64_t *mul = inv5 + 2 * q;
        e10 = q;
        vr = mul_shift(4 * m2, mul, i);
        vp = mul_shift(4 * m2 + 2, mul, i);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, i);
        if (q <= 21) {
            /* at most one of mv, mp and mm is a multiple of 5 */
            if (mv % 5 == 0)
                vr_trailing_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        int q = log10_pow5(-e2) - (-e2 > 1);
        int i = -e2 - q;
        int k = pow5_bits(i) - POW5_BITS;
        int j = q - k;
        const uint64_t *mul = pow5 + 2 * i;
        e10 = q + e2;
        vr = mul_shift(4 * m2, mul, j);
        vp = mul_shift(4 * m2 + 2, mul, j);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, j);
        if (q <= 1) {
            /* mv = 4 m2 has at least two trailing zero bits */
            vr_trailing_zeros = 1;
            if (accept_bounds)
                vm_trailing_zeros = mm_shift == 1;
            else
                --vp;
        } else if (q < 63) {
            vr_trailing_zeros = multiple_of_pow2(mv, q);
        }
    }

    /* drop digits while the interval still holds a shorter decimal */
    int removed = 0;
    int last_removed = 0;
    uint64_t output;
    if (vm_trailing_zeros || vr_trailing_zeros) {
        while (vp / 10 > vm / 10) {
            vm_trailing_zeros &= vm % 10 == 0;
            vr_trailing_zeros &= last_removed == 0;
            last_removed = (int)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        if (vm_trailing_zeros) {
            while (vm % 10 == 0) {
                vr_trailing_zeros &= last_removed == 0;
                last_removed = (int)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
                removed++;
            }
        }
        if (vr_trailing_zeros && last_removed == 5 && vr % 2 == 0)
            last_removed = 4; /* an exact tie rounds to even */
        output = vr + ((vr == vm && (!accept_bounds || !vm_trailing_zeros))
                       || last_removed >= 5);
    } else {
        int round_up = 0;
        if (vp / 100 > vm / 100) {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while (vp / 10 > vm / 10) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        output = vr + (vr == vm || round_up);
    }
    *exp10 = e10 + removed;
    return output;
}

/* the number of decimal digits of 0 < v < 10^19: from its bit length, as
   floor(bits log10 2) by 1233 / 4096, then one comparison */
static int decimal_length(uint64_t v)
{
    static const uint64_t POW10[] = {
        1ull, 10ull, 100ull, 1000ull, 10000ull, 100000ull, 1000000ull, 10000000ull,
        100000000ull, 1000000000ull, 10000000000ull, 100000000000ull, 1000000000000ull,
        10000000000000ull, 100000000000000ull, 1000000000000000ull, 10000000000000000ull,
        100000000000000000ull, 1000000000000000000ull, 10000000000000000000ull};
    int t = ((64 - __builtin_clzll(v)) * 1233) >> 12;
    return t + (v >= POW10[t]);
}

/* "00" to "99" */
static const char DIGIT_PAIRS[200] =
    "00010203040506070809101112131415161718192021222324"
    "25262728293031323334353637383940414243444546474849"
    "50515253545556575859606162636465666768697071727374"
    "75767778798081828384858687888990919293949596979899";

/* Writes the n decimal digits of v, with a '.' after the first point of
   them when 0 < point < n; returns the end.  The digits are made two at a
   time, eight at a time in 32-bit arithmetic. */
static char *put_digits(char *p, uint64_t v, int n, int point)
{
    char digits[20];
    char *q = digits + n;
    while (v >= 100000000) {
        uint32_t low = (uint32_t)(v % 100000000);
        v /= 100000000;
        for (int i = 0; i < 4; i++) {
            q -= 2;
            memcpy(q, DIGIT_PAIRS + 2 * (low % 100), 2);
            low /= 100;
        }
    }
    uint32_t high = (uint32_t)v;
    for (; high >= 100; high /= 100) {
        q -= 2;
        memcpy(q, DIGIT_PAIRS + 2 * (high % 100), 2);
    }
    if (high >= 10)
        memcpy(q - 2, DIGIT_PAIRS + 2 * high, 2);
    else
        q[-1] = (char)('0' + high);
    if (point <= 0 || point >= n) {
        memcpy(p, digits, (size_t)n);
        return p + n;
    }
    memcpy(p, digits, (size_t)point);
    p[point] = '.';
    memcpy(p + point + 1, digits + point, (size_t)(n - point));
    return p + n + 1;
}

/* One double as repr writes it: positional from 1e-4 up to 1e16 (integral
   values end in ".0"), scientific outside with a signed exponent of at least
   two digits; "-0.0", "nan" and "inf" as repr spells them.  Writes at most
   24 characters and returns the end. */
static char *put_double(char *p, double v, const uint64_t *inv5, const uint64_t *pow5)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    uint64_t mantissa = bits & ((1ull << MANTISSA_BITS) - 1);
    int exponent = (int)((bits >> MANTISSA_BITS) & 0x7ff);
    if (exponent == 0x7ff && mantissa != 0) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (exponent == 0x7ff) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (exponent == 0 && mantissa == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }

    int exp10;
    uint64_t digits = shortest(mantissa, exponent, inv5, pow5, &exp10);
    int n = decimal_length(digits);
    int point = n + exp10; /* the double is 0.d1d2... x 10^point */
    if (point > -4 && point <= 16) {
        if (point <= 0) {
            *p++ = '0';
            *p++ = '.';
            for (; point < 0; point++)
                *p++ = '0';
        }
        p = put_digits(p, digits, n, point);
        if (point >= n) {
            for (; point > n; point--)
                *p++ = '0';
            *p++ = '.';
            *p++ = '0';
        }
        return p;
    }
    p = put_digits(p, digits, n, 1);
    int e = point - 1;
    *p++ = 'e';
    *p++ = e < 0 ? '-' : '+';
    if (e < 0)
        e = -e;
    if (e >= 100)
        *p++ = (char)('0' + e / 100);
    *p++ = (char)('0' + e / 10 % 10);
    *p++ = (char)('0' + e % 10);
    return p;
}

/* the longest number put_double writes and its separator */
enum { NUMBER_BYTES = 24 + 1 };

/* Writes the n x m doubles of values into buf as n lines of m numbers split
   by blanks, each as repr writes it.  Returns the bytes written, or -1 when
   m < 1 or cap < n * m * NUMBER_BYTES. */
long df_format_rows(const double *values, long n, long m, const uint64_t *inv5,
                    const uint64_t *pow5, char *buf, long cap)
{
    if (n < 0 || m < 1 || cap / m / NUMBER_BYTES < n)
        return -1;
    char *p = buf;
    for (long k = 0; k < n; k++) {
        for (long c = 0; c < m; c++) {
            p = put_double(p, *values++, inv5, pow5);
            *p++ = ' ';
        }
        p[-1] = '\n';
    }
    return (long)(p - buf);
}

/* ---- correctly rounded decimal input (Eisel-Lemire) --------------------- */

enum { SMALLEST_POW10 = -342, LARGEST_POW10 = 308, MAX_TOKEN = 64 };

/* w x 10^q rounded to the nearest double, ties to even, for 0 < w < 10^19;
   returns 0 when the 128-bit product cannot decide the rounding.  pow5
   holds the truncated 128-bit 5^q, normalized to a set top bit, for
   q = SMALLEST_POW10 .. LARGEST_POW10. */
static int eisel_lemire(uint64_t w, int q, const uint64_t *pow5, double *value)
{
    uint64_t bits;
    if (q < SMALLEST_POW10) {
        bits = 0;
    } else if (q > LARGEST_POW10) {
        bits = 0x7ffull << MANTISSA_BITS;
    } else {
        int lz = __builtin_clzll(w);
        w <<= lz;
        const uint64_t *mul = pow5 + 2 * (q - SMALLEST_POW10);
        u128 first = (u128)w * mul[1];
        uint64_t high = (uint64_t)(first >> 64), low = (uint64_t)first;
        if ((high & 0x1ff) == 0x1ff) {
            /* the truncated power leaves the low bits unsure: add the next word */
            uint64_t second = (uint64_t)(((u128)w * mul[0]) >> 64);
            low += second;
            if (second > low)
                high++;
        }
        /* 5^q < 2^64 below q = 28 and its reciprocal is exact above q = -28,
           so outside that range an all-ones low word may hide a carry */
        if (low == UINT64_MAX && (q < -27 || q > 55))
            return 0;
        int upper = (int)(high >> 63);
        uint64_t mantissa = high >> (upper + 64 - MANTISSA_BITS - 3);
        /* floor(q log2 10) + 63, and the biased binary exponent */
        int power2 = (int)((((152170 + 65536) * (int64_t)q) >> 16) + 63) + upper - lz
                     + EXPONENT_BIAS;
        if (power2 <= 0) {
            /* subnormal, or zero; no ties occur this far down */
            if (-power2 + 1 >= 64) {
                mantissa = 0;
                power2 = 0;
            } else {
                mantissa >>= -power2 + 1;
                mantissa += mantissa & 1;
                mantissa >>= 1;
                power2 = mantissa < (1ull << MANTISSA_BITS) ? 0 : 1;
            }
        } else {
            /* an exact halfway product rounds to even, not up */
            if (low <= 1 && q >= -4 && q <= 23 && (mantissa & 3) == 1
                && (mantissa << (upper + 64 - MANTISSA_BITS - 3)) == high)
                mantissa &= ~1ull;
            mantissa += mantissa & 1;
            mantissa >>= 1;
            if (mantissa >= (2ull << MANTISSA_BITS)) {
                mantissa = 1ull << MANTISSA_BITS;
                power2++;
            }
            mantissa &= ~(1ull << MANTISSA_BITS);
            if (power2 >= 0x7ff) {
                power2 = 0x7ff;
                mantissa = 0;
            }
        }
        bits = mantissa | (uint64_t)power2 << MANTISSA_BITS;
    }
    memcpy(value, &bits, sizeof bits);
    return 1;
}

static int is_digit(char c) { return c >= '0' && c <= '9'; }

/* Appends the digits at *p to *w (mod 2^64) and advances *p past them;
   returns how many there were. */
static long take_digits(const char **p, const char *lim, uint64_t *w)
{
    const char *s = *p;
    for (; s < lim && is_digit(*s); s++)
        *w = 10 * *w + (uint64_t)(*s - '0');
    long n = s - *p;
    *p = s;
    return n;
}

/* Parses the plain decimal token at p, [+-]digits[.digits][(e|E)[+-]digits]
   with a digit on either side of the point; returns its end, or NULL when
   the text at p is not such a token or too long to hand to strtod. */
static const char *parse_double(const char *p, const char *lim, const uint64_t *pow5,
                                double *value)
{
    const char *start = p;
    int negative = p < lim && *p == '-';
    if (p < lim && (*p == '-' || *p == '+'))
        p++;
    const char *first = p;
    uint64_t w = 0;
    long digits = take_digits(&p, lim, &w);
    long q = 0;
    if (p < lim && *p == '.') {
        p++;
        q = -take_digits(&p, lim, &w);
        digits -= q;
    }
    if (digits == 0)
        return NULL;
    const char *last = p;
    if (p < lim && (*p == 'e' || *p == 'E')) {
        p++;
        int exp_negative = p < lim && *p == '-';
        if (p < lim && (*p == '-' || *p == '+'))
            p++;
        if (p == lim || !is_digit(*p))
            return NULL;
        long e = 0;
        for (; p < lim && is_digit(*p); p++) {
            e = 10 * e + (*p - '0');
            if (e > 100000)
                return NULL; /* such exponents are left to the caller's reader */
        }
        q += exp_negative ? -e : e;
    }
    if (digits > 19) {
        /* leading zeros add nothing to w; the rest must fit in 19 digits */
        for (const char *s = first; s < last && (*s == '0' || *s == '.'); s++)
            digits -= *s == '0';
    }
    if (digits <= 19) {
        if (w == 0) {
            *value = negative ? -0.0 : 0.0;
            return p;
        }
        if (eisel_lemire(w, (int)q, pow5, value)) {
            if (negative)
                *value = -*value;
            return p;
        }
    }
    char token[MAX_TOKEN];
    if (p - start >= MAX_TOKEN)
        return NULL;
    memcpy(token, start, (size_t)(p - start));
    token[p - start] = '\0';
    *value = strtod(token, NULL);
    return p;
}

static int is_blank(char c) { return c == ' ' || c == '\t'; }

/* Parses the complete lines of text[0:len), and the unterminated last one
   when final, as rows of ncols plain decimal numbers split by blanks, or by
   commas with optional blanks around them when comma is set.  Lines end in
   LF or CRLF; blank lines are skipped (empty ones only, with commas).  Of
   each row, the first lead numbers go to first (cap x lead), the next width
   to out (cap x width), and the rest are read and dropped, so that a
   caller can route a column apart and keep only the columns it uses; the
   row count goes to *nrows.  Returns the bytes consumed, or -1 when the
   text breaks any of these rules, lead + width > ncols or out is full, so
   that the caller can parse it otherwise. */
long df_parse_rows(const char *text, long len, int final, int comma, const uint64_t *pow5,
                   long ncols, double *first, long lead, double *out, long width, long cap,
                   long *nrows)
{
    const char *point = localeconv()->decimal_point;
    if (point[0] != '.' || point[1] != '\0')
        return -1; /* strtod would not read the decimal point */
    if (lead < 0 || width < 0 || lead + width > ncols)
        return -1;
    const char *p = text, *lim = text + len;
    long rows = 0;
    while (p < lim) {
        const char *eol = memchr(p, '\n', (size_t)(lim - p));
        if (eol == NULL && !final)
            break;
        const char *next = eol == NULL ? lim : eol + 1;
        const char *stop = eol == NULL ? lim : eol;
        if (stop > p && stop[-1] == '\r')
            stop--;
        if (!comma)
            while (p < stop && is_blank(*p))
                p++;
        if (p == stop) {
            p = next;
            continue;
        }
        if (rows == cap)
            return -1;
        double *head = first + lead * rows, *row = out + width * rows, dropped;
        long col = 0;
        for (;;) {
            if (comma)
                while (p < stop && is_blank(*p))
                    p++;
            if (col == ncols)
                return -1;
            p = parse_double(p, stop, pow5,
                             col < lead ? &head[col] : col < lead + width ? &row[col - lead] : &dropped);
            col++;
            if (p == NULL)
                return -1;
            const char *end = p;
            while (p < stop && is_blank(*p))
                p++;
            if (p == stop)
                break;
            if (comma) {
                if (*p != ',')
                    return -1;
                p++;
            } else if (p == end) {
                return -1; /* no blank after the token */
            }
        }
        if (col != ncols)
            return -1;
        rows++;
        p = next;
    }
    *nrows = rows;
    return (long)(p - text);
}
