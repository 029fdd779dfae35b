"""Derivatives read off the functions they differentiate, by one complex step."""

STEP = 2.0 ** -100    # a power of two: scaling by it is exact


def value_and_slope(func, x):
    """``(f(x), f'(x))`` from one evaluation ``f(x + i STEP)``: its real part and
    its imaginary part over ``STEP``, exact to round-off as no difference is
    taken (Squire & Trapp, *SIAM Rev.* 40(1), 1998; Martins et al., *ACM TOMS*
    29(3), 2003). ``func`` must be analytic along its argument's path: no
    ``abs`` or conjugate, and branches on real parts only."""
    f = func(x + STEP * 1j)
    return f.real, f.imag / STEP
