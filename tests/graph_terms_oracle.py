"""The genus-one terms by the rule that sorts renamed names, key by key.

For every key this rebuilds the sorted edge names, finds each contraction's
target and the names it renames, and signs the term by its place and by
the parity of sorting the renamed names of the edges left, with
``sort_sign``; a relabeling takes the parity of sorting the relabeled
names.  With the kill off, both parallel edges of a 2-cycle contract to
the same loop; ``summed`` adds up the terms of a shared target, as the
package's terms do.  The package reads the same signs off one view per
cycle and a flip mask per cycle edge (``graphcomplex._Cycle``); the tests
check every term of both against each other.
"""

from __future__ import annotations

from stirhom.graphcomplex import LOOP, _cycle_names, _normal_cycle
from stirhom.stirling import _mask_set, _members
from stirhom.trees import _bit_images, sort_sign


def edge_names(key):
    """The names of a class's edges, sorted: its reference order."""
    cycle, clusters = key
    return sorted(_cycle_names(cycle) + tuple(_members(clusters)))


def contraction_terms(key, orientation_kill=True):
    """The differential's terms of one generator, one per edge in the order
    of its names; with the orientation kill, targets with a 2-cycle are
    left out."""
    cycle, clusters = key
    names = edge_names(key)
    cycle_names = _cycle_names(cycle)
    last = len(names) - 1
    terms = []
    for pos, name in enumerate(names):
        sign = -1 if (last - pos) % 2 else 1
        rename = {}
        if clusters >> name & 1:
            target = (cycle, clusters ^ 1 << name)
        elif len(cycle) == 1:
            target = ((), clusters)
        elif len(cycle) == 2:
            # the other parallel edge becomes the loop
            target = ((cycle[0] | cycle[1],), clusters)
            rename = {name ^ 1: LOOP}
        else:
            j = cycle_names.index(name)
            rotated = cycle[j:] + cycle[:j]
            target = (_normal_cycle((name,) + rotated[2:]), clusters)
            others = [n for n in cycle_names if n != name]
            if len(cycle) == 3:
                # the two left become parallel, named in source order
                rename = dict(zip(others, _cycle_names(target[0])))
            else:
                rename = {n: n | name for n in others if n & name}
        if orientation_kill and len(target[0]) == 2:
            continue
        if rename:
            sign *= sort_sign([rename.get(n, n) for n in names if n != name])
        terms.append((target, sign))
    return terms


def summed(terms):
    """The terms with the signs of a shared target added up, each target
    where it first occurs, a zero sum left out."""
    totals = {}
    for target, sign in terms:
        totals[target] = totals.get(target, 0) + sign
    return [(target, sign) for target, sign in totals.items() if sign]


def action_terms(perm):
    """The terms of a permutation of the legs (``perm[j - 1]`` the image of
    leg j), as a function from a generator to the list of its one term."""
    image = _bit_images([0] + list(perm))

    def terms(key):
        cycle, clusters = key
        target = (_normal_cycle(tuple(image[b] for b in cycle)),
                  _mask_set(image[c] for c in _members(clusters)))
        return [(target, sort_sign([image[name] for name in edge_names(key)]))]

    return terms
