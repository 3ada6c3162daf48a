"""The reference g-image shared by the tests of the g-image: the earlier
implementation, which splits w, then splits every term of fold_l(n, w),
running eta on the prefix of each. It costs 4^(n-2) dict updates at degree n,
where `quotients._g_image_scaled` takes about n 2^(n-2). Like it, the
reference refuses the empty word; the fold at index 0 it would take there is
the identity on a word, as the fold index is checked by `moves.fold_l`, once
per call, and not by `moves.fold_l_word`."""

from swingwords.chains import accumulate
from swingwords.moves import eta_word, fold_l_word
from swingwords.scalars import InputError


def ref_split(word, coeff):
    last = word[-1:]
    return ((u + last, coeff * c) for u, c in eta_word(word[:-1]).items())


def ref_g_image_scaled(word):
    if not word:
        raise InputError("the empty word has no tensor image")
    n = len(word)
    sign = 1 if n % 2 == 0 else -1
    out = accumulate(ref_split(word, sign))
    for w, c in fold_l_word(n, word).items():
        accumulate(ref_split(w, -sign * c), out)
    return out
