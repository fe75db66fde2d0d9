"""Print the reference values of J0 at complex arguments that
``tests/test_quadrature.py`` commits as literals (``_J0_REFERENCE``,
``_J0_NEAR_LEGS`` and ``_J0_SCATTERED``).

The far arguments span |x| in [18, 1e4] and ph x in [-pi/2, 0], with Im x
down to -600, the deepest a synthesis leg reaches.  The near ones, |x| <
18, lie on vertical legs x = x0 - i t descending from real starts x0 in
{0.5, 3, 7.25, 12, 17.5} with t up to 17.9, as the bent leg's arguments
do, plus five points scattered over the near disk.  Each value is J0 at
the argument's double value, to 30 significant digits with mpmath, printed
to 20 digits, more than a double holds.  Run offline; mpmath is not a test
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
NEAR_STARTS = (0.5, 3.0, 7.25, 12.0, 17.5)
NEAR_DEPTHS = (0.0, 0.25, 1.0, 2.5, 4.0, 6.0, 9.0, 12.5, 15.0, 17.9)
NEAR_LEGS = [(x0, 0.0 - t) for x0 in NEAR_STARTS for t in NEAR_DEPTHS if abs(complex(x0, -t)) < 18.0]
SCATTERED = [(17.99, 0.0), (12.7, -12.7), (1.0, -17.9), (2.0, 0.0), (0.5, -0.1)]


def _print_table(name: str, arguments: list[tuple[float, float]]) -> None:
    print(f"{name} = [  # (Re x, Im x, Re J0(x), Im J0(x))")
    for re, im in arguments:
        value = mpmath.besselj(0, mpmath.mpc(re, im))
        print(f"    ({re!r}, {im!r}, {mpmath.nstr(value.real, 20)}, {mpmath.nstr(value.imag, 20)}),")
    print("]")


def main() -> None:
    _print_table("_J0_REFERENCE", ARGUMENTS)
    _print_table("_J0_NEAR_LEGS", NEAR_LEGS)
    _print_table("_J0_SCATTERED", SCATTERED)


if __name__ == "__main__":
    main()
