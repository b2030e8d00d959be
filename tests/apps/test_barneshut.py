"""Tests for the Barnes-Hut application: octree invariants, traversal
accuracy, and the three implementations' agreement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.barneshut import (
    bh_forces,
    build_octree,
    check_octree,
    direct_forces,
    make_plummer_cloud,
    max_tree_nodes,
    mpi_bh_simulate,
    ppm_bh_simulate,
    serial_bh_simulate,
    walk_forces,
)
from repro.apps.barneshut.traversal import flat_ranges
from repro.config import franklin
from repro.core.runtime import PpmRuntime
from repro.machine import Cluster


@pytest.fixture(scope="module")
def cloud():
    return make_plummer_cloud(256, seed=7)


class TestCloud:
    def test_shapes(self, cloud):
        pos, vel, mass = cloud
        assert pos.shape == (256, 3)
        assert vel.shape == (256, 3)
        assert mass.shape == (256,)

    def test_unit_total_mass(self, cloud):
        assert cloud[2].sum() == pytest.approx(1.0)

    def test_deterministic(self):
        a = make_plummer_cloud(64, seed=3)
        b = make_plummer_cloud(64, seed=3)
        assert (a[0] == b[0]).all()

    def test_different_seeds_differ(self):
        a = make_plummer_cloud(64, seed=3)
        b = make_plummer_cloud(64, seed=4)
        assert not (a[0] == b[0]).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            make_plummer_cloud(0)


class TestOctree:
    def test_invariants(self, cloud):
        pos, _vel, mass = cloud
        tree = build_octree(pos, mass)
        check_octree(tree, pos, mass)

    def test_leaf_size_respected(self, cloud):
        pos, _vel, mass = cloud
        tree = build_octree(pos, mass, leaf_size=8)
        from repro.apps.barneshut.octree import F_NCHILDREN, F_PCOUNT

        leaves = tree.nodes[tree.nodes[:, F_NCHILDREN] == 0]
        assert leaves[:, F_PCOUNT].max() <= 8

    def test_single_particle(self):
        tree = build_octree(np.zeros((1, 3)), np.ones(1))
        assert tree.n_nodes == 1
        assert tree.perm.tolist() == [0]

    def test_coincident_particles_small_leaf(self):
        """Degenerate input (identical points) must not loop forever:
        leaf_size >= duplicate count keeps it finite."""
        pos = np.zeros((5, 3))
        tree = build_octree(pos, np.ones(5), leaf_size=8)
        assert tree.n_nodes == 1

    def test_max_tree_nodes_bound_holds(self, cloud):
        pos, _vel, mass = cloud
        for leaf in (1, 4, 16):
            tree = build_octree(pos, mass, leaf_size=leaf)
            assert tree.n_nodes <= max_tree_nodes(256, leaf)

    def test_build_flops_positive(self, cloud):
        pos, _vel, mass = cloud
        assert build_octree(pos, mass).build_flops > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_octree(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError):
            build_octree(np.zeros((4, 2)), np.ones(4))
        with pytest.raises(ValueError):
            build_octree(np.zeros((4, 3)), np.ones(4), leaf_size=0)


class TestForces:
    def test_bh_close_to_direct(self, cloud):
        pos, _vel, mass = cloud
        a_bh = bh_forces(pos, mass, theta=0.5)
        a_direct = direct_forces(pos, mass)
        rel = np.linalg.norm(a_bh - a_direct, axis=1) / (
            np.linalg.norm(a_direct, axis=1) + 1e-12
        )
        assert np.median(rel) < 0.02
        assert rel.max() < 0.3

    def test_theta_zero_is_exact(self, cloud):
        """theta = 0 forces full descent: BH degenerates to direct
        summation."""
        pos, _vel, mass = cloud
        a_bh = bh_forces(pos, mass, theta=0.0)
        a_direct = direct_forces(pos, mass)
        assert np.allclose(a_bh, a_direct, atol=1e-9)

    def test_smaller_theta_more_accurate(self, cloud):
        pos, _vel, mass = cloud
        a_direct = direct_forces(pos, mass)

        def err(theta):
            a = bh_forces(pos, mass, theta=theta)
            return np.linalg.norm(a - a_direct)

        assert err(0.3) < err(0.9)

    def test_momentum_roughly_conserved(self, cloud):
        pos, _vel, mass = cloud
        a = bh_forces(pos, mass, theta=0.5)
        # Equal masses: net acceleration should be near zero.
        assert np.abs((a * mass[:, None]).sum(axis=0)).max() < 1e-2 * np.abs(a).max()

    def test_walk_empty_chunk(self, cloud):
        pos, _vel, mass = cloud
        tree = build_octree(pos, mass)
        posm = np.concatenate([pos, mass[:, None]], axis=1)
        res = walk_forces(
            np.zeros((0, 3)),
            lambda rows: tree.nodes[rows],
            lambda starts, counts: posm[tree.perm[flat_ranges(starts, counts)]],
        )
        assert res.acc.shape == (0, 3)
        assert res.interactions == 0


def _oracle_walk(pos_chunk, fetch_tree, fetch_perm, fetch_posm, *, theta=0.5, eps=1e-3):
    """Reference walk interacting each leaf group on its own; the
    batched ``walk_forces`` must match it bit for bit."""
    from repro.apps.barneshut.octree import (
        F_COM, F_FIRST_CHILD, F_HALFW, F_MASS, F_NCHILDREN, F_PCOUNT, F_PSTART,
    )

    acc = np.zeros((pos_chunk.shape[0], 3))
    pairs_p = np.arange(pos_chunk.shape[0], dtype=np.int64)
    pairs_n = np.zeros(pos_chunk.shape[0], dtype=np.int64)
    interactions = rounds = fetched = 0
    while pairs_p.size:
        rounds += 1
        uniq, inv = np.unique(pairs_n, return_inverse=True)
        R = np.asarray(fetch_tree(uniq))[inv]
        fetched += uniq.size
        d = R[:, F_COM] - pos_chunk[pairs_p]
        r2 = np.einsum("ij,ij->i", d, d)
        accept = ((2.0 * R[:, F_HALFW]) ** 2 < theta * theta * r2) & (R[:, F_MASS] > 0.0)
        a = np.nonzero(accept)[0]
        rr2 = r2[a] + eps * eps
        inv_r3 = np.where(rr2 > 0.0, R[a, F_MASS] / (rr2 * np.sqrt(rr2)), 0.0)
        np.add.at(acc, pairs_p[a], d[a] * inv_r3[:, None])
        interactions += int(a.size)
        leaf = ~accept & (R[:, F_NCHILDREN] == 0)
        l_sorted = np.nonzero(leaf)[0][np.argsort(pairs_n[leaf], kind="stable")]
        for group in np.split(l_sorted, np.nonzero(np.diff(pairs_n[l_sorted]))[0] + 1):
            if not group.size:
                continue
            ps, pc = int(R[group[0], F_PSTART]), int(R[group[0], F_PCOUNT])
            pm = np.asarray(fetch_posm(np.asarray(fetch_perm(ps, pc), dtype=np.int64)))
            p_local = pairs_p[group]
            dp = pm[None, :, 0:3] - pos_chunk[p_local][:, None, :]
            rr2 = np.einsum("ijk,ijk->ij", dp, dp) + eps * eps
            inv_r3 = np.where(rr2 > 0.0, pm[None, :, 3] / (rr2 * np.sqrt(rr2)), 0.0)
            acc[p_local] += (dp * inv_r3[:, :, None]).sum(axis=1)
            interactions += int(group.size) * pc
            fetched += pc
        e = np.nonzero(~accept & ~leaf)[0]
        nc = R[e, F_NCHILDREN].astype(np.int64)
        within = np.arange(int(nc.sum())) - np.repeat(np.cumsum(nc) - nc, nc)
        pairs_p = np.repeat(pairs_p[e], nc)
        pairs_n = np.repeat(R[e, F_FIRST_CHILD].astype(np.int64), nc) + within
    return acc, interactions, rounds, fetched


class TestBatchedLeavesAreBitwise:
    """``walk_forces`` fetches a round's leaves in one call and
    interacts its leaf pairs in one flat batch; accelerations,
    statistics and the fetch sequence must equal the per-leaf
    oracle's exactly, not just closely."""

    @staticmethod
    def _walk(pos, mass, chunk, leaf_size, theta, *, oracle):
        tree = build_octree(pos, mass, leaf_size=leaf_size)
        posm = np.concatenate([pos, mass[:, None]], axis=1)
        calls = []

        def fetch_tree(rows):
            calls.append(("tree", rows.tolist()))
            return tree.nodes[rows]

        def fetch_perm(start, count):
            calls.append(("perm", start, count))
            return tree.perm[start : start + count]

        def fetch_leaves(starts, counts):
            # One call's runs, flattened in order, as the oracle's calls.
            calls.extend(("perm", s, c) for s, c in zip(starts.tolist(), counts.tolist()))
            return posm[tree.perm[flat_ranges(starts, counts)]]

        if oracle:
            out = _oracle_walk(pos[chunk], fetch_tree, fetch_perm, posm.__getitem__, theta=theta)
        else:
            out = walk_forces(pos[chunk], fetch_tree, fetch_leaves, theta=theta)
        return out, calls

    def _check(self, pos, mass, chunk, leaf_size, theta):
        res, got = self._walk(pos, mass, chunk, leaf_size, theta, oracle=False)
        (acc, interactions, rounds, fetched), want = self._walk(
            pos, mass, chunk, leaf_size, theta, oracle=True
        )
        assert res.acc.tobytes() == acc.tobytes()
        assert (res.interactions, res.rounds, res.records_fetched) == (
            interactions, rounds, fetched,
        )
        assert got == want
        return got

    @pytest.mark.parametrize("leaf_size", [1, 4, 16])
    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.9])
    def test_chunk_matches_oracle(self, cloud, leaf_size, theta):
        pos, _vel, mass = cloud
        self._check(pos, mass, slice(37, 165), leaf_size, theta)

    @pytest.mark.parametrize("leaf_size", [1, 16])
    def test_one_particle_chunk(self, cloud, leaf_size):
        pos, _vel, mass = cloud
        self._check(pos, mass, slice(200, 201), leaf_size, 0.5)

    @pytest.mark.parametrize("leaf_size", [4, 16])
    def test_coincident_particles(self, cloud, leaf_size):
        """Triples of identical points put a particle's twins in its
        own leaf: dp == 0 pairs next to padded slots."""
        pos, _vel, mass = cloud
        pos = np.repeat(pos[:40], 3, axis=0)
        self._check(pos, np.repeat(mass[:40], 3), slice(0, 60), leaf_size, 0.5)


    def test_leaf_group_of_one_pair(self):
        """One particle in a lone far leaf: a round whose only leaf
        group holds a single pair."""
        pos = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.9, 0.9, 0.9]])
        mass = np.array([0.5, 0.25, 0.25])
        got = self._check(pos, mass, slice(2, 3), 1, 0.01)
        assert sum(c[0] == "perm" for c in got) >= 1

    def test_every_pair_of_a_round_is_a_leaf(self):
        """A tree that is a single leaf: the first round has no
        accepted or expanded pair, only leaf pairs."""
        pos, _vel, mass = make_plummer_cloud(12, seed=5)
        got = self._check(pos, mass, slice(0, 12), 16, 0.5)
        assert got == [("tree", [0]), ("perm", 0, 12)]


class TestAgreement:
    @pytest.mark.parametrize("nodes", [1, 2, 3])
    def test_ppm_matches_serial(self, cloud, nodes):
        pos, vel, mass = cloud
        ref_p, ref_v = serial_bh_simulate(pos, vel, mass, steps=2)
        pp, pv, elapsed = ppm_bh_simulate(
            pos, vel, mass, Cluster(franklin(n_nodes=nodes)), steps=2
        )
        assert np.allclose(pp, ref_p, atol=1e-12)
        assert np.allclose(pv, ref_v, atol=1e-12)
        assert elapsed > 0

    def test_ppm_independent_of_vp_count(self, cloud):
        pos, vel, mass = cloud
        p1, _v1, _ = ppm_bh_simulate(
            pos, vel, mass, Cluster(franklin(n_nodes=2)), steps=1, vp_per_core=1
        )
        p2, _v2, _ = ppm_bh_simulate(
            pos, vel, mass, Cluster(franklin(n_nodes=2)), steps=1, vp_per_core=4
        )
        assert np.allclose(p1, p2, atol=1e-15)

    def test_mpi_replication_close_to_serial(self, cloud):
        """The tree-replication baseline sums per-subtree
        approximations; positions agree with the single-tree run to
        within the method's approximation error."""
        pos, vel, mass = cloud
        ref_p, _ = serial_bh_simulate(pos, vel, mass, steps=2)
        mp, _mv, elapsed = mpi_bh_simulate(
            pos, vel, mass, Cluster(franklin(n_nodes=2)), steps=2, ranks=4
        )
        drift = np.abs(ref_p - pos).max()
        assert np.abs(mp - ref_p).max() < 0.05 * drift
        assert elapsed > 0


class TestPhasePlans:
    def test_row_log_phases_keep_no_plan(self, monkeypatch):
        """A walk phase reads through row logs, whose serials are new
        every phase, so its shape can never repeat: it keeps no plan,
        and the plans held at the last barrier do not grow with the
        step count.  It still counts as a miss."""
        run_phase = PpmRuntime._run_phase
        seen = []

        def spy(self, *args):
            run_phase(self, *args)
            seen.append(
                (len(self._phase_plans), self.stats_phase_plan_hits, self.stats_phase_plan_misses)
            )

        monkeypatch.setattr(PpmRuntime, "_run_phase", spy)
        pos, vel, mass = make_plummer_cloud(512, seed=3)
        kept = {}
        for steps in (2, 8):
            seen.clear()
            ppm_bh_simulate(pos, vel, mass, Cluster(franklin(n_nodes=4)), steps=steps)
            kept[steps] = seen[-1]
        assert kept == {2: (2, 2, 4), 8: (2, 14, 10)}


class TestFigure3Shape:
    def test_ppm_scales_well(self):
        """Figure 3: PPM time keeps dropping as nodes are added."""
        pos, vel, mass = make_plummer_cloud(1024, seed=5)
        times = []
        for nodes in (1, 4, 16):
            _, _, t = ppm_bh_simulate(
                pos, vel, mass, Cluster(franklin(n_nodes=nodes)), steps=1
            )
            times.append(t)
        assert times[1] < times[0]
        assert times[2] < times[1]

    def test_mpi_replication_ships_far_more_bytes(self):
        """The paper's critique of the MPI method: whole-tree
        replication moves vastly more data than PPM's on-demand
        bundled fetches."""
        from repro.apps.barneshut.octree import build_octree
        from repro.mpi.datatypes import payload_nbytes

        pos, vel, mass = make_plummer_cloud(512, seed=5)
        cluster = Cluster(franklin(n_nodes=4))
        ppm_bh_simulate(pos, vel, mass, cluster, steps=1)
        ppm_bytes = cluster.trace.total_bytes("ppm_global_phase")
        assert ppm_bytes > 0

        # Analytic replication volume: every rank ships its whole
        # subtree package to every other rank, so the wire volume
        # grows ~linearly with the rank count while PPM's on-demand
        # fetches do not.
        def replication_bytes(ranks: int) -> int:
            per_rank = 512 // ranks
            tree = build_octree(pos[:per_rank], mass[:per_rank])
            posm = np.concatenate(
                [pos[:per_rank], mass[:per_rank, None]], axis=1
            )
            package = payload_nbytes((tree.nodes, tree.perm, posm))
            return ranks * (ranks - 1) * package

        assert replication_bytes(16) > ppm_bytes
        assert replication_bytes(64) > 5 * ppm_bytes
        assert replication_bytes(64) > 3 * replication_bytes(16)
