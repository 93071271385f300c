"""The 8th-order Dormand-Prince pair DOP853 with its 7th-order dense output.

Prince & Dormand, J. Comput. Appl. Math. 7 (1981); Hairer, Norsett & Wanner,
"Solving Ordinary Differential Equations I", sec. II.10.  This is the DOP853
path of scipy 1.17.1's initial-value solver, kept to what
``dynamics._integrate`` uses: an autonomous real system y' = fun(y) over
[0, T], scalar tolerances and optional output times.  Every numpy operation
is scipy's, in scipy's order, so each state is the same bits; importing this
module loads no part of scipy.
"""

import numpy as np

SAFETY = 0.9  # multiplies the step the error's asymptotics predict
MIN_FACTOR = 0.2  # smallest and largest step change in one step
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 8  # the error estimate is of order 7

# The tableau of Hairer's dop853.f: row s of A holds the weights of the stages
# 0 .. s - 1 in stage s.  Stages 0 .. 11 make the step, stage 12 (weights B)
# is the new state and its derivative, and stages 13 .. 15 serve the dense
# output alone.  The stage times are not kept: the system is autonomous.
_A_ROWS = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0, 0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0, 0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0, 0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0, 0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0, 0, 0, 0, 4.45031289275240888144113950566,
     1.89151789931450038304281599044, -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2),
    (5.61675022830479523392909219681e-2, 0, 0, 0, 0, 0, 2.53500210216624811088794765333e-1,
     -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3, -8.298e-3),
    (3.18346481635021405060768473261e-2, 0, 0, 0, 0, 2.83009096723667755288322961402e-2,
     5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2, 0, 0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4, -3.40465008687404560802977114492e-4,
     1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0, 0, 0, 0, -4.69762141536116384314449447206,
     7.68342119606259904184240953878, 4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0, 0, 0,
     -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149, -9.15095847217987001081870187138),
)
A = np.zeros((16, 16))
A[np.tril_indices(16, -1)] = np.concatenate(_A_ROWS)
B = A[12, :12]
# The 5th- and 3rd-order error estimates, as weights of the stages 0 .. 12.
E5 = np.array([
    0.1312004499419488073250102996e-1, 0, 0, 0, 0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1, 0,
])
E3 = np.append(B, 0.0)
E3[[0, 8, 11]] -= (0.244094488188976377952755905512, 0.733846688281611857341361741547,
                   0.220588235294117647058823529412e-1)
# The dense output's coefficients 4 .. 7, as weights of the 16 stages.
D = np.array([
    [-0.84289382761090128651353491142e+1, 0, 0, 0, 0, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0, 0, 0, 0, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, 0, 0, 0, 0, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, 0, 0, 0, 0, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3],
])


class StepSizeUnderflow(ArithmeticError):
    """The step fell below 10 spacings of the floats at ``t``, where the run stopped."""

    def __init__(self, t):
        super().__init__("Required step size is less than spacing between numbers.")
        self.t = t


def _rms(x):
    return np.linalg.norm(x) / x.size**0.5


def _initial_step(fun, y0, f0, T, direction, rtol, atol):
    """Hairer, Norsett & Wanner's starting step (sec. II.4), at the price of one
    right-hand side."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(T))
    f1 = fun(y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, abs(T))


def _stages(fun, y, h, K, first, last):
    """Fill the stages first .. last - 1 of K from the ones before them."""
    for s in range(first, last):
        K[s] = fun(y + np.dot(K[:s].T, A[s, :s]) * h)


def _error_norm(K, h, scale):
    """The RMS error of the step, the 5th-order estimate damped by the 3rd-order one."""
    err5_norm_2 = np.linalg.norm(np.dot(K.T, E5) / scale) ** 2
    err3_norm_2 = np.linalg.norm(np.dot(K.T, E3) / scale) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _dense(fun, K, t_old, y_old, y, f, h, t):
    """The states, as columns, at the times ``t`` of the step of length h from
    (t_old, y_old) to y, where the derivative is f; the 3 extra stages cost 3
    right-hand sides."""
    _stages(fun, y_old, h, K, 13, 16)
    delta_y = y - y_old
    F = np.empty((7, len(y)))
    F[0] = delta_y
    F[1] = h * K[0] - delta_y
    F[2] = 2 * delta_y - h * (f + K[0])
    F[3:] = h * np.dot(D, K)
    x = ((t - t_old) / h)[:, None]
    out = np.zeros((len(x), len(y)))
    for i, Fi in enumerate(reversed(F)):
        out += Fi
        out *= x if i % 2 == 0 else 1 - x
    out += y_old
    return out.T


def solve(fun, y0, T, rtol, atol, t_eval):
    """Integrate y' = fun(y), y(0) = y0 over [0, T], forward or backward by the
    sign of T.

    Returns (times, states), states of shape (len(times), len(y0)): every
    accepted step, from (0, y0), or the dense output at the sorted ``t_eval``
    points.  T = 0 makes no step and returns (0, y0) and (T, y0).  Raises
    ``StepSizeUnderflow`` where the step falls below 10 spacings of the floats.
    """
    f = fun(y0)
    if T == 0:
        return np.array([0.0, T]), np.stack([y0, y0])
    direction = np.sign(T)
    h_abs = _initial_step(fun, y0, f, T, direction, rtol, atol)
    K = np.empty((16, len(y0)))
    t, y = 0.0, y0
    times, states = ([t], [y]) if t_eval is None else ([], [])
    if t_eval is not None and T < 0:  # increasing, for searchsorted
        t_eval = t_eval[::-1]
    i_eval = 0 if t_eval is None or T > 0 else len(t_eval)
    while direction * (t - T) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflow(t)
            t_new = t + h_abs * direction
            if direction * (t_new - T) > 0:
                t_new = T
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            _stages(fun, y, h, K, 1, 12)
            y_new = y + h * np.dot(K[:12].T, B)
            f_new = K[12] = fun(y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K[:13], h, scale)
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
            rejected = True
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        if t_eval is None:
            times.append(t)
            states.append(y)
            continue
        # the output times in this step, t included, sliced as scipy slices them
        if direction > 0:
            i_new = np.searchsorted(t_eval, t, side="right")
            t_step = t_eval[i_eval:i_new]
        else:
            i_new = np.searchsorted(t_eval, t, side="left")
            t_step = t_eval[i_new:i_eval][::-1]
        if t_step.size > 0:
            times.append(t_step)
            states.append(_dense(fun, K, t_old, y_old, y, f, h, t_step))
            i_eval = i_new
    if t_eval is None:
        return np.array(times), np.vstack(states)
    return np.hstack(times), np.hstack(states).T
