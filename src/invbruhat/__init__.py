"""Bruhat order on involutions of the symmetric group.

Permutation plumbing, the dot-criterion Bruhat order, covering moves on
involutions, saturated chains, fixed-point classes with gradedness and
rank machinery, and EL-labelling verification, plus a CLI front end.
Each name is imported from the module that defines it; the package
root binds none.
"""
