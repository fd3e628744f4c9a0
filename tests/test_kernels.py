import json
import random
import subprocess
import sys

import oracles
from oddwalk import kernels
from oddwalk.bruteforce import all_homs
from oddwalk.gadget import build_gadget
from oddwalk.generators import cycle_graph, random_graph


def random_instance(rng, n_vertices, n_witnesses, length):
    wit_ends = []
    for _ in range(n_witnesses):
        a = rng.randrange(n_vertices)
        b = rng.randrange(n_vertices - 1)
        if b >= a:
            b += 1
        wit_ends.append((a, b))
    vmasks = [rng.randrange(1 << n_vertices) for _ in range(length)]
    wmasks = [rng.randrange(1 << n_witnesses) for _ in range(length - 1)]
    return vmasks, wmasks, wit_ends


def test_pure_propagation_is_arc_consistent():
    rng = random.Random(50)
    for _ in range(100):
        n, w = rng.randint(2, 6), rng.randint(1, 8)
        vmasks, wmasks, wit_ends = random_instance(rng, n, w, rng.randint(1, 7))
        out_v, out_w = kernels.path_propagate(vmasks, wmasks, wit_ends, n, w)
        # outputs shrink the inputs
        assert all(o & ~i == 0 for o, i in zip(out_v, vmasks))
        assert all(o & ~i == 0 for o, i in zip(out_w, wmasks))
        # a second pass is a fixpoint
        again = kernels.path_propagate(out_v, out_w, wit_ends, n, w)
        assert (list(out_v), list(out_w)) == (list(again[0]), list(again[1]))
        # every surviving witness has both endpoints available
        for j, mask in enumerate(out_w):
            for idx in range(w):
                if mask >> idx & 1:
                    a, b = wit_ends[idx]
                    left, right = out_v[j], out_v[j + 1]
                    assert (left >> a & 1 and right >> b & 1) or \
                           (left >> b & 1 and right >> a & 1)


def test_pure_propagation_preserves_denotation():
    # count assignments by brute force before and after propagation
    rng = random.Random(51)
    for _ in range(50):
        n, w = rng.randint(2, 4), rng.randint(1, 5)
        vmasks, wmasks, wit_ends = random_instance(rng, n, w, rng.randint(1, 5))
        out_v, out_w = kernels.path_propagate(vmasks, wmasks, wit_ends, n, w)

        def denotation(vm, wm):
            full = [[i] for i in range(n) if vm[0] >> i & 1]
            for pos in range(1, len(vm)):
                nxt = []
                for p in full:
                    for widx in range(w):
                        if not wm[pos - 1] >> widx & 1:
                            continue
                        a, b = wit_ends[widx]
                        if a == p[-1] and vm[pos] >> b & 1:
                            nxt.append(p + [b])
                        elif b == p[-1] and vm[pos] >> a & 1:
                            nxt.append(p + [a])
                full = nxt
            return len(full)

        assert denotation(vmasks, wmasks) == denotation(out_v, out_w)


def test_backend_selection_limits():
    # benchmarks/e2e reads these three names for its kernel provenance
    for n_vertices, n_witnesses in ((10, 10), (64, 64), (65, 3), (3, 65), (500, 900)):
        assert kernels.backend_for(n_vertices, n_witnesses) == "pure"
    assert kernels.native_available() is False
    # the only witness runs 0-1, so pinning position 0 to vertex 0 pins 1 to 1
    vmasks, wmasks = kernels.path_propagate([0b01, 0b11], [0b1], [(0, 1)], 2, 1)
    assert (list(vmasks), list(wmasks)) == ([0b01, 0b10], [0b1])


def test_large_targets_use_pure_path_and_agree():
    # 70 vertices is past any word-sized mask
    g = cycle_graph(70)
    assert all_homs(build_gadget((1,)), g).count() == oracles.walk_count(g, 3)


def test_profile_counts_match_under_forced_pure_kernel():
    # the pure kernel is the only one: a fresh process, given the graph as
    # JSON, reports it as the backend and counts what this process counts
    rng = random.Random(53)
    graphs = [random_graph(rng, 6, 0.5, multi=0.3) for _ in range(3)]
    script = (
        "from oddwalk import kernels\n"
        "from oddwalk.bruteforce import all_homs\n"
        "from oddwalk.gadget import build_gadget\n"
        "from oddwalk.graphs import WitnessedGraph\n"
        "import sys\n"
        "g = WitnessedGraph.from_json_text(sys.stdin.read())\n"
        "print(kernels.backend_for(len(g.vertices), len(g.witnesses)))\n"
        "print(all_homs(build_gadget((1, 3)), g).count())\n"
    )
    gadget = build_gadget((1, 3))
    for g in graphs:
        run = subprocess.run([sys.executable, "-c", script],
                             input=json.dumps(g.to_json_dict()),
                             capture_output=True, text=True, check=True)
        backend, count = run.stdout.split()
        assert backend == "pure"
        assert int(count) == all_homs(gadget, g).count()
        assert int(count) == oracles.walk_count(g, gadget.edge_count)


def test_memoized_steps_match_two_sweep_oracle():
    # repeated domains are what the step memo keys on: uniform profiles,
    # profiles with a few pinned positions, and profiles narrowed at random
    # from a small pool of masks, so that steps repeat and also differ
    rng = random.Random(54)
    for trial in range(300):
        n, w = rng.randint(2, 9), rng.randint(1, 14)
        length = rng.randint(1, 30)
        _, _, wit_ends = random_instance(rng, n, w, 1)
        allv, allw = (1 << n) - 1, (1 << w) - 1
        vmasks, wmasks = [allv] * length, [allw] * (length - 1)
        if trial % 3 == 1:
            for i in rng.sample(range(length), rng.randint(1, min(3, length))):
                vmasks[i] = 1 << rng.randrange(n)
        elif trial % 3 == 2:
            vpool = [rng.randrange(1, 1 << n) for _ in range(3)] + [allv]
            wpool = [rng.randrange(1, 1 << w) for _ in range(3)] + [allw]
            vmasks = [rng.choice(vpool) for _ in range(length)]
            wmasks = [rng.choice(wpool) for _ in range(length - 1)]
        got = kernels.path_propagate(vmasks, wmasks, wit_ends, n, w)
        want = oracles.path_propagate_two_sweep(vmasks, wmasks, wit_ends)
        assert (list(got[0]), list(got[1])) == want
