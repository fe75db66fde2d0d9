"""Print the reference values of J0 at complex arguments that
``tests/test_quadrature.py`` commits as literals (``_J0_REFERENCE``).

The arguments span |x| in [18, 1e4] and ph x in [-pi/2, 0], with Im x down
to -600, the deepest a synthesis leg reaches.  Each value is J0 at the
argument's double value, to 30 significant digits with mpmath, printed to
20 digits, more than a double holds.  Run offline; mpmath is not a test
dependency:

    python tests/reference/make_j0_reference.py
"""

import mpmath

mpmath.mp.dps = 30

ARGUMENTS = [
    (18.0, 0.0), (12.75, -12.75), (0.0, -18.0), (18.25, -2.0), (25.0, -7.5),
    (40.0, -30.0), (100.0, 0.0), (100.0, -60.0), (5.0, -99.0), (300.0, -1.0),
    (250.0, -250.0), (50.0, -590.0), (0.0, -600.0), (600.0, -600.0), (1000.0, -0.25),
    (1234.5678, -345.678), (1000.0, -599.0), (3000.0, -20.0), (3000.0, -600.0),
    (10000.0, 0.0), (9981.0, -600.0),
]


def main() -> None:
    print("_J0_REFERENCE = [  # (Re x, Im x, Re J0(x), Im J0(x))")
    for re, im in ARGUMENTS:
        value = mpmath.besselj(0, mpmath.mpc(re, im))
        print(f"    ({re!r}, {im!r}, {mpmath.nstr(value.real, 20)}, {mpmath.nstr(value.imag, 20)}),")
    print("]")


if __name__ == "__main__":
    main()
