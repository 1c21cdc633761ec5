/* Euler-Maruyama chunk stepper of darkfocus.dynamics.simulate.

   One call advances one trajectory through one chunk of pre-scaled noise:
   force, step, unstable-step check, then the reflecting fold or the escape
   at the spherical domain wall.  It repeats the Python reference loop of
   darkfocus.dynamics operation for operation, left to right, with only
   + - * /, sqrt and libm's exp, atan, cos and sin, so compiled without
   floating-point contraction or fast-math it reproduces the reference bit
   for bit.  model and coef come from darkfocus.dynamics._force_model,
   which builds the reference loop's force from the same numbers. */

#include <math.h>

enum { HARMONIC = 0, QUARTIC = 1, DIPOLE = 2 };
enum { RAN = 0, ESCAPED = 1, UNSTABLE = 2 };

typedef struct {
    double x, y, z;
} vec3;

/* coef = k_x, k_y, k_z */
static vec3 harmonic(const double *c, double x, double y, double z)
{
    vec3 f = {-c[0] * x, -c[1] * y, -c[2] * z};
    return f;
}

/* coef = k_z, k_rho_z, k_rho; darkfocus.forces._quartic_force */
static vec3 quartic(const double *c, double x, double y, double z)
{
    double rho2 = x * x + y * y;
    double radial = 2.0 * c[1] * z * z - c[2] * rho2;
    vec3 f = {radial * x, radial * y, -c[0] * z + 2.0 * c[1] * rho2 * z};
    return f;
}

/* coef = p, w0^2, z_R, P0, cos and sin of theta_rel, pi, potential
   prefactor, scattering prefactor over it (0 without scattering), then the
   p + 1 coefficients of L_p and the p of dL_p/du, highest power first;
   darkfocus.beam._bottle_field and darkfocus.dynamics._force_model */
static vec3 dipole(const double *c, double x, double y, double z)
{
    int p = (int)c[0];
    double w0sq = c[1], zr = c[2], p_total = c[3], ct = c[4], st = c[5];
    double pi = c[6], scale = c[7], scat = c[8];
    const double *lag_c = c + 9, *dlag_c = c + 10 + p;

    double rho2 = x * x + y * y;
    double t = z / zr;
    double one_t2 = 1.0 + t * t;
    double w2 = w0sq * one_t2;
    double u = 2.0 * rho2 / w2;
    double lag = 0.0, dlag = 0.0;
    for (int k = 0; k <= p; k++)
        lag = lag * u + lag_c[k];
    for (int k = 0; k < p; k++)
        dlag = dlag * u + dlag_c[k];
    double tau = atan(t);
    double c2p = cos(2 * p * tau), s2p = sin(2 * p * tau);
    double cos_rel = ct * c2p + st * s2p;
    double sin_rel = st * c2p - ct * s2p;
    double ce = scale * (p_total / (pi * w2) * exp(-u));
    double one_lag = 1.0 - lag;
    double intensity = ce * (one_lag * one_lag + 2.0 * lag * (1.0 + cos_rel));
    double bracket = 1.0 + lag * lag + 2.0 * lag * cos_rel;
    double shape = 2.0 * dlag * (lag + cos_rel) - bracket;
    double g = 2.0 * t / (zr * one_t2);
    double dtau = 1.0 / (zr * one_t2);
    double fz = ce * (-g * bracket - u * g * shape + 4.0 * p * lag * sin_rel * dtau);
    double radial = ce * (4.0 / w2) * shape;
    if (scat != 0.0)
        fz += scat * intensity;
    vec3 f = {radial * x, radial * y, fz};
    return f;
}

/* Steps through the n rows of noise (n x 3, already scaled).  out holds
   (n + 1) x 3 positions: row 0 is the current one, and step k writes row k.
   Returns the steps taken and sets *status: RAN after all n; ESCAPED when
   step k left an absorbing domain (row k holds the escape position);
   UNSTABLE when step k's displacement exceeded the bound (nothing written). */
long df_step_chunk(int model, const double *coef, const double *noise, long n,
                   double *out, double bound, double mob, int reflect, int *status)
{
    double bound2 = bound * bound;
    double x = out[0], y = out[1], z = out[2];
    for (long k = 1; k <= n; k++, noise += 3) {
        vec3 f = model == HARMONIC ? harmonic(coef, x, y, z)
               : model == QUARTIC  ? quartic(coef, x, y, z)
                                   : dipole(coef, x, y, z);
        double dx = f.x * mob + noise[0];
        double dy = f.y * mob + noise[1];
        double dz = f.z * mob + noise[2];
        if (dx * dx + dy * dy + dz * dz > bound2) {
            *status = UNSTABLE;
            return k;
        }
        x += dx;
        y += dy;
        z += dz;
        double r2 = x * x + y * y + z * z;
        double *row = out + 3 * k;
        if (r2 > bound2) {
            if (!reflect) {
                row[0] = x;
                row[1] = y;
                row[2] = z;
                *status = ESCAPED;
                return k;
            }
            /* radial fold across the spherical wall */
            double fold = (2.0 * bound - sqrt(r2)) / sqrt(r2);
            x *= fold;
            y *= fold;
            z *= fold;
        }
        row[0] = x;
        row[1] = y;
        row[2] = z;
    }
    *status = RAN;
    return n;
}
