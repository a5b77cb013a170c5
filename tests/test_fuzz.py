"""Seeded randomized cross-validation of the pipeline against the oracles."""

import random

from helpers import (
    oracle_partition,
    oracle_predecessors,
    partition_as_context_groups,
    random_presentation,
)
from shiftk import (
    ResourceCapError,
    ValidationError,
    build_chain,
    higher_block,
    k_groups,
    language,
    parse_presentation,
    predecessor_set,
    symbolic_expansion,
)
from shiftk.model import FiniteModel, run_all_checks
from shiftk.partitions import restricted_maps


def test_random_presentations_agree_with_oracles():
    rng = random.Random(20260809)
    checked = 0
    while checked < 60:
        obj = random_presentation(rng)
        try:
            p = parse_presentation(obj)
        except (ValidationError, ResourceCapError):
            continue
        chain = build_chain(p, 5)       # internal consistency asserts run here
        assert chain.stabilization.level <= len(p.contexts) - 1, obj
        for level in range(chain.length + 1):
            assert partition_as_context_groups(p, chain.levels[level]) == \
                oracle_partition(p, level), obj
        for ctx in p.contexts:
            x = p.witness(ctx)
            for k in range(4):
                assert predecessor_set(p, ctx, k) == oracle_predecessors(p, x, k), obj
        for l in range(3):
            for k in range(l + 1):
                rm = restricted_maps(chain, k, l)
                rm_up = restricted_maps(chain, k, l + 1)
                rm_k1 = restricted_maps(chain, k + 1, l + 1)
                assert rm_up.action.mul(rm.inclusion).entries == \
                    rm_k1.inclusion.mul(rm.action).entries, obj
        assert k_groups(chain) == k_groups(build_chain(p, 40)), obj
        checked += 1


def test_random_finite_models_satisfy_identities():
    rng = random.Random(11)
    checked = 0
    while checked < 15:
        obj = random_presentation(rng)
        if obj["type"] != "finite":
            continue
        try:
            p = parse_presentation(obj)
        except (ValidationError, ResourceCapError):
            continue
        for rep in run_all_checks(FiniteModel(p), 2):
            assert rep.ok, (obj, rep.render())
        checked += 1


def test_random_sfts_transform_invariance():
    rng = random.Random(22)
    checked = 0
    while checked < 12:
        n_letters = rng.randint(2, 3)
        alphabet = [str(i) for i in range(n_letters)]
        forb = {tuple(rng.randrange(n_letters) for _ in range(rng.randint(2, 3)))
                for _ in range(rng.randint(0, 3))}
        try:
            p = parse_presentation({
                "type": "sft", "alphabet": alphabet,
                "forbidden": [[alphabet[a] for a in w] for w in sorted(forb)]})
        except (ValidationError, ResourceCapError):
            continue
        out, _ = higher_block(p, 2)
        for k in range(1, 4):
            assert len(language(out, k)) == len(language(p, k + 1)), (forb, k)
        ch_p, ch_o = build_chain(p, 6), build_chain(out, 6)
        assert k_groups(ch_p) == k_groups(ch_o), forb
        if p.sigma_surjective:
            exp, _ = symbolic_expansion(p, alphabet[0], "*")
            assert k_groups(ch_p).k0 == k_groups(build_chain(exp, 7)).k0, forb
        checked += 1
