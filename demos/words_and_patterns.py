"""Tour of the word layer: canonical forms, enumeration, pattern scans.

Run:  python demos/words_and_patterns.py
"""

from polyak import (
    GaussWord,
    angle_bracket,
    canonicalize,
    delete_letters,
    enumerate_canonical,
    has_adjacent_double,
    neighbors,
)

W = GaussWord.from_text

# A Gauss word is a sequence where every letter occurs exactly twice.
# Words are kept canonical: letters are renamed in order of first
# appearance, so each isomorphism class has exactly one representative.
print("canonicalize('BAAB')  ->", canonicalize("BAAB"))
print("canonicalize('BCACBA') ->", canonicalize("BCACBA"))

# The number of canonical words of rank r is the double factorial (2r-1)!!.
print("\ncounts by rank:")
for rank in range(7):
    print(f"  rank {rank}: {len(enumerate_canonical(rank))}")

# Rank 2 in full: the three ways to interleave two pairs.
print("\nrank-2 words:", ", ".join(str(w) for w in enumerate_canonical(2)))

# Words of the form xAAy are 'reducible': an adjacent pair deletes under
# the first homotopy move, and the algebra kills them outright.
for text in ("ABBA", "ABAB"):
    print(f"has_adjacent_double({text}) = {has_adjacent_double(W(text))}")

# Deleting letters gives subwords; the angle bracket counts how many letter
# subsets of the big word induce a given small word up to isomorphism.
w = W("ABACBC")
print(f"\ndelete B from {w}:", delete_letters(w, {1}))
print("angle_bracket(ABAB, ABCABC) =", angle_bracket(W("ABAB"), W("ABCABC")))
print("angle_bracket(-, ABCABC)    =", angle_bracket(W("-"), W("ABCABC")))

# The relation generators come from two adjacency patterns: xAByBAz (an
# interleaved pair with both blocks contiguous) and xAByACzBCt (three
# contiguous blocks sharing three letters).  They are the sites of two
# homotopy moves: the interleaved-pair deletion H2 and the side-0 block
# exchange H3.  With rank_cap = rank, `neighbors` lists no insertions.
print("\npattern sites:")
for text in ("ABBA", "ABCACB", "ABACBC", "ABCACDBD"):
    w = W(text)
    pairs = [
        tuple(chr(65 + x) for x in m.data) for _, m in neighbors(w, w.rank, {"H2"})
    ]
    triples = [
        tuple(chr(65 + x) for x in m.data[1:])
        for _, m in neighbors(w, w.rank, {"H3"})
        if m.data[0] == 0
    ]
    print(f"  {text}: two-letter {pairs or '-'}  three-letter {triples or '-'}")
