from fractions import Fraction

import mpmath

from abundancy.interval import Comparison

# 40-digit reference values, frozen from an independent high-precision
# evaluation (mpmath at 40 dps) before the library was written.
ORACLE = {
    "ln(4/3)": "0.2876820724517809274392190059938274315035",
    "ln(13/9)": "0.3677247801253173532629969677202671955103",
    "x(3)": "1.278233214156758319954129254415970516469",
    "x(5)": "1.179846110353518588852808993265830298736",
    "x(9)": "1.091417855461165074577070439191143007378",
    "x(15)": "1.240067360070392585626799105131940042821",
    "x(45)": "1.120728798947936702204234321671738209991",
    "bound(8/5,3)": "1.444405573698282071821667036058151956149",
    "bound(8/5,5)": "1.489380277792671939360418925893193576325",
    "1/x(5)": "0.8475681626821390284297688334190395415525",
    "limit(5)": "2.799465150785959850867736805872372140008",
    "limit(3)": "2.719906158804456049474804945584437570695",
    "1+sqrt(3)": "2.732050807568877293527446341505872366943",
    "f(5,5)": "2.741813830537291437573150631944953119547",
    "f(13,5)": "2.766837557586850231616139154627010553283",
    "f(5,3)": "2.691278989746372355801936944264842879269",
    "sqrt(2)": "1.41421356237309504880168872420969807857",
    "ln(2)": "0.6931471805599453094172321214581765680755",
    "margin(5,5)": "0.009763022968414144045704290439080752603878",
}

ORACLE_TOL = Fraction(1, 10**36)

# The least prime above 2^300; it is 1 (mod 4). At 256 bits ln I(p) ~ 1/p is
# not separated from zero, so the sandwich's x(p) is the exact range [1, 2]
# until the ladder reaches 1024; a lone exponent and 1/x(p), taken at
# relative precision, show 1 < x(p) < 2 at once.
BIG_PRIME = 2**300 + 157


def assert_consistent(enclosure, key, tol=ORACLE_TOL):
    """The enclosure must sit inside the frozen reference value's accuracy
    window (the enclosure itself is far tighter than 40 digits)."""
    ref = Fraction(ORACLE[key])
    assert ref - tol <= enclosure.lo, f"{key}: lo {float(enclosure.lo)} below window"
    assert enclosure.hi <= ref + tol, f"{key}: hi {float(enclosure.hi)} above window"


def separation(threshold):
    """escalate's stopping rule for a verdict against an exact rational: the
    side of it that the enclosure lies on, None while the two touch."""

    def verdict(enclosure):
        side = enclosure.compare(threshold)
        return None if side is Comparison.UNDECIDED else side

    return verdict


def exponent_oracle(f, prec: int) -> Fraction:
    """x(n) = sum ln I(p^2e) / sum ln I(p^e) by mpmath at prec bits."""
    with mpmath.workprec(prec):

        def ln_index(k):
            return mpmath.fsum(
                mpmath.log(mpmath.mpf(p ** (k * e + 1) - 1) / (mpmath.mpf(p) ** (k * e) * (p - 1)))
                for p, e in f.factors
            )

        man, exp = (ln_index(2) / ln_index(1)).man_exp
        return Fraction(man) * Fraction(2) ** exp
