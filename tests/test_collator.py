"""Tests for trace collation: deduplication, collective matching, expansion."""

from __future__ import annotations

import math
import pickle

import pytest

from repro.core.collator import (
    CollectiveResolution,
    CollectiveTable,
    IdentityGroupResolver,
    TopologyGroupResolver,
    TraceCollator,
)
from repro.core.emulator import EmulationSession
from repro.core.pipeline import MayaPipeline
from repro.core.trace import (
    JobTrace,
    TraceEvent,
    TraceEventKind,
    WorkerTrace,
    collective_signature,
)
from repro.framework.topology import ParallelTopology
from repro.hardware.cluster import get_cluster
from repro.service import wire
from repro.workloads.job import TransformerTrainingJob
from repro.workloads.models import get_transformer
from repro.framework.recipe import TrainingRecipe

from test_simulator import build_random_tie_job


def _collective_event(op, rank, ranks, seq, comm_id=1, tag="dp", nbytes=1024.0,
                      peer=None):
    collective = {"comm_id": comm_id, "comm_tag": tag, "seq": seq, "op": op,
                  "rank": rank, "nranks": len(ranks), "ranks": tuple(ranks)}
    if peer is not None:
        collective["peer"] = peer
    return TraceEvent(kind=TraceEventKind.COLLECTIVE, api=f"nccl{op}",
                      device=0, stream=0, kernel_class=op,
                      params={"bytes": nbytes}, collective=collective)


def _kernel_event(nbytes=64.0):
    return TraceEvent(kind=TraceEventKind.KERNEL, api="k", device=0, stream=0,
                      kernel_class="elementwise", params={"bytes": nbytes})


def _job_with_two_identical_workers():
    job = JobTrace(world_size=4)
    for rank in (0, 1, 2, 3):
        trace = WorkerTrace(rank=rank, device=rank)
        trace.append(_kernel_event())
        trace.append(_collective_event("all_reduce", rank, [0, 1, 2, 3], seq=1))
        job.add_worker(trace)
    return job


class TestDeduplication:
    def test_identical_workers_collapse_to_one(self):
        collated = TraceCollator(deduplicate=True).collate(
            _job_with_two_identical_workers())
        assert collated.unique_trace_count() == 1
        assert set(collated.representative.values()) == {0}
        assert collated.stats["dedup_savings"] == pytest.approx(0.75)

    def test_dedup_can_be_disabled(self):
        collated = TraceCollator(deduplicate=False).collate(
            _job_with_two_identical_workers())
        assert collated.unique_trace_count() == 4

    def test_distinct_workers_not_merged(self):
        job = JobTrace(world_size=2)
        first = WorkerTrace(rank=0, device=0)
        first.append(_kernel_event(64.0))
        second = WorkerTrace(rank=1, device=1)
        second.append(_kernel_event(128.0))
        job.add_worker(first)
        job.add_worker(second)
        collated = TraceCollator().collate(job)
        assert collated.unique_trace_count() == 2

    def test_selective_launch_expansion_requires_topology(self):
        job = JobTrace(world_size=4)
        trace = WorkerTrace(rank=0, device=0)
        trace.append(_kernel_event())
        job.add_worker(trace)
        with pytest.raises(ValueError):
            TraceCollator().collate(job)
        topology = ParallelTopology(world_size=4, tensor_parallel=2,
                                    pipeline_parallel=1)
        collated = TraceCollator().collate(job, topology=topology)
        assert collated.representative[3] == 0

    def test_expansion_fails_for_missing_stage(self):
        job = JobTrace(world_size=4)
        trace = WorkerTrace(rank=0, device=0)
        trace.append(_kernel_event())
        job.add_worker(trace)
        topology = ParallelTopology(world_size=4, tensor_parallel=1,
                                    pipeline_parallel=2)
        with pytest.raises(ValueError):
            TraceCollator().collate(job, topology=topology)


def _emulated_tp2_pp2():
    cluster = get_cluster("v100-8")
    recipe = TrainingRecipe(tensor_parallel=2, pipeline_parallel=2,
                            microbatch_multiplier=2, dtype="float16")
    job = TransformerTrainingJob(get_transformer("gpt-tiny"), recipe, cluster,
                                 global_batch_size=16)
    result = EmulationSession(cluster).run(job.worker_fn,
                                           ranks=job.unique_ranks(),
                                           world_size=job.world_size)
    return job, result.job_trace


class TestPipelinePeerDedup:
    def test_p2p_signature_keeps_positions_not_ranks(self):
        def send(rank, peer, ranks):
            return {"comm_id": 3, "comm_tag": "pp", "seq": 1, "op": "send",
                    "rank": rank, "peer": peer, "nranks": len(ranks),
                    "ranks": ranks}

        # Stage 1 -> 2 of two data-parallel replicas: same positions.
        assert collective_signature(send(2, 4, (0, 2, 4, 6))) == \
            collective_signature(send(3, 5, (1, 3, 5, 7)))
        # Stage 1 -> 2 against stage 2 -> 3 of one replica.
        assert collective_signature(send(2, 4, (0, 2, 4, 6))) != \
            collective_signature(send(4, 6, (0, 2, 4, 6)))

    @pytest.mark.parametrize("selective_launch", [True, False])
    def test_gpipe_middle_stages_replay_their_own_sends(self,
                                                        selective_launch):
        # Stages 1 and 2 of a 4-stage GPipe job run the same layers and
        # differ only in their p2p peers; merging them deadlocked replay.
        cluster = get_cluster("v100-8")
        job = TransformerTrainingJob(
            get_transformer("gpt-small"),
            TrainingRecipe(tensor_parallel=1, pipeline_parallel=4,
                           microbatch_multiplier=1, schedule="gpipe"),
            cluster, global_batch_size=64)
        results = {}
        for deduplicate in (True, False):
            pipeline = MayaPipeline(cluster, estimator_mode="analytical",
                                    deduplicate_workers=deduplicate,
                                    selective_launch=selective_launch)
            artifacts = pipeline.emulate(job)
            assert set(artifacts.collated.representative.values()) >= \
                {0, 1, 2, 3}
            results[deduplicate] = pipeline.predict(job, artifacts)
        assert math.isfinite(results[False].iteration_time)
        assert results[True].iteration_time == results[False].iteration_time

    def test_selective_launch_skips_the_dedup_hash(self, monkeypatch):
        job, job_trace = _emulated_tp2_pp2()
        hashed = []
        monkeypatch.setattr(WorkerTrace, "rolling_signature",
                            lambda trace: hashed.append(trace.rank) or 0)
        collated = TraceCollator().collate(job_trace,
                                           topology=job.topology())
        assert hashed == []
        for rank in job.unique_ranks():
            assert collated.representative[rank] == rank

    def test_more_ranks_than_selective_launch_still_dedup(self):
        topology = ParallelTopology(world_size=4, tensor_parallel=4,
                                    pipeline_parallel=1)
        collated = TraceCollator().collate(_job_with_two_identical_workers(),
                                           topology=topology)
        assert set(collated.representative.values()) == {0}


def _resolutions_by_event(trace):
    """The per-event collective resolution the collator's numpy pass
    replaced: one walk in trace order, pair counters in a dict."""
    resolutions, pairs = {}, {}
    for event in trace.events:
        if event.kind is not TraceEventKind.COLLECTIVE:
            continue
        info = event.collective
        op = str(info.get("op", "all_reduce"))
        group = tuple(info.get("ranks", ()))
        rank = int(info.get("rank", trace.rank))
        me = group.index(rank) if rank in group else 0
        peer_position = pair_index = None
        if op in ("send", "recv"):
            peer = int(info.get("peer", rank))
            peer_position = group.index(peer) if peer in group else 0
            ends = (me, peer_position) if op == "send" else (peer_position, me)
            key = (info.get("comm_id"),) + ends
            pair_index = pairs.get(key, 0)
            pairs[key] = pair_index + 1
        resolutions[event.seq] = CollectiveResolution(
            op=op, tag=str(info.get("comm_tag", "")) or "default",
            nranks=int(info.get("nranks", max(len(group), 1))),
            nbytes=float(event.params.get("bytes", 0.0)),
            seq_in_comm=info.get("seq", event.seq),
            representative_group=group, self_position=me,
            peer_position=peer_position, pair_index=pair_index,
            is_p2p=op in ("send", "recv"))
    return resolutions


class TestCollectiveTable:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_per_event_walk(self, seed):
        collated = TraceCollator(deduplicate=False).collate(
            build_random_tie_job(seed))
        for rank, trace in collated.traces.items():
            table = collated.resolutions[rank]
            assert isinstance(table, CollectiveTable)
            assert dict(table) == _resolutions_by_event(trace)
            # One record per collective template, not per event.
            assert len(table.records) <= len(trace.columns.templates)

    def test_emulated_trace_matches_the_per_event_walk(self):
        job, job_trace = _emulated_tp2_pp2()
        collated = TraceCollator().collate(job_trace, topology=job.topology())
        for rank, trace in collated.traces.items():
            table = collated.resolutions[rank]
            assert dict(table) == _resolutions_by_event(trace)
            assert len(table.records) < len(table)

    def test_pickle_carries_no_collective_table(self):
        # The table is a view of the columns: a pickled or shipped
        # artifact carries the traces alone, and its decoded copy rebuilds
        # the same table from the decoded columns.
        job, job_trace = _emulated_tp2_pp2()
        collated = TraceCollator().collate(job_trace, topology=job.topology())
        assert "resolutions" not in collated.__getstate__()
        for payload in (pickle.dumps(collated),
                        wire.dumps_columnar(collated)):
            for name in (b"resolutions", b"CollectiveResolution",
                         b"CollectiveTable", b"CollectiveTemplate"):
                assert name not in payload
            restored = wire.loads(payload)
            for rank, table in collated.resolutions.items():
                copy = restored.resolutions[rank]
                assert copy.records == table.records
                for column in ("seqs", "template", "seq_in_comm",
                               "pair_index"):
                    assert (getattr(copy, column).tolist()
                            == getattr(table, column).tolist())


class TestCollectiveResolution:
    def test_group_collective_key_matches_across_ranks(self):
        job = _job_with_two_identical_workers()
        collated = TraceCollator(deduplicate=False).collate(job)
        events = [e for e in collated.traces[0].events
                  if e.kind is TraceEventKind.COLLECTIVE]
        key0 = collated.collective_key(0, events[0])
        key1 = collated.collective_key(1, events[0])
        assert key0 == key1
        assert key0[0] == "coll"

    def test_non_collective_event_has_no_key(self):
        collated = TraceCollator().collate(_job_with_two_identical_workers())
        kernel = collated.traces[0].events[0]
        assert collated.collective_key(0, kernel) is None

    def test_p2p_send_recv_pair_to_same_key(self):
        job = JobTrace(world_size=2)
        sender = WorkerTrace(rank=0, device=0)
        sender.append(_collective_event("send", 0, [0, 1], seq=1, tag="pp",
                                        peer=1))
        receiver = WorkerTrace(rank=1, device=1)
        receiver.append(_collective_event("recv", 1, [0, 1], seq=1, tag="pp",
                                          peer=0))
        job.add_worker(sender)
        job.add_worker(receiver)
        collated = TraceCollator(deduplicate=False).collate(job)
        send_key = collated.collective_key(0, sender.events[0])
        recv_key = collated.collective_key(1, receiver.events[0])
        assert send_key == recv_key
        assert send_key[0] == "p2p"

    def test_repeated_p2p_messages_get_distinct_pair_indices(self):
        trace = WorkerTrace(rank=0, device=0)
        trace.append(_collective_event("send", 0, [0, 1], seq=1, tag="pp", peer=1))
        trace.append(_collective_event("send", 0, [0, 1], seq=2, tag="pp", peer=1))
        job = JobTrace(world_size=2)
        job.add_worker(trace)
        other = WorkerTrace(rank=1, device=1)
        other.append(_kernel_event())
        job.add_worker(other)
        collated = TraceCollator(deduplicate=False).collate(job)
        first = collated.resolution_for(0, trace.events[0])
        second = collated.resolution_for(0, trace.events[1])
        assert first.pair_index == 0
        assert second.pair_index == 1

    def test_topology_resolver_remaps_groups_per_rank(self):
        topology = ParallelTopology(world_size=8, tensor_parallel=2,
                                    pipeline_parallel=2)
        resolver = TopologyGroupResolver(topology)
        rep_group = tuple(topology.data_parallel_group(0))
        remapped = resolver.group_for(1, "dp", rep_group)
        assert remapped == tuple(topology.data_parallel_group(1))
        assert remapped != rep_group

    def test_identity_resolver_keeps_group(self):
        resolver = IdentityGroupResolver()
        assert resolver.group_for(7, "dp", (0, 1)) == (0, 1)

    def test_unknown_tag_falls_back_to_recorded_group(self):
        topology = ParallelTopology(world_size=4, tensor_parallel=2,
                                    pipeline_parallel=1)
        resolver = TopologyGroupResolver(topology)
        assert resolver.group_for(3, "expert", (0, 2)) == (0, 2)


class TestEndToEndCollation:
    def test_transformer_job_collation_stats(self):
        cluster = get_cluster("v100-8")
        model = get_transformer("gpt-tiny")
        recipe = TrainingRecipe(tensor_parallel=2, pipeline_parallel=2,
                                microbatch_multiplier=2, dtype="float16")
        job = TransformerTrainingJob(model, recipe, cluster,
                                     global_batch_size=16)
        session = EmulationSession(cluster)
        result = session.run(job.worker_fn, ranks=job.unique_ranks(),
                             world_size=job.world_size)
        collated = TraceCollator().collate(result.job_trace,
                                           topology=job.topology())
        # Two pipeline stages -> two unique traces, expanded to all 8 ranks.
        assert collated.unique_trace_count() == 2
        assert set(collated.representative) == set(range(8))
        assert collated.peak_memory_bytes() > 0
        assert not collated.any_oom()

    def test_every_collective_event_is_resolved(self):
        cluster = get_cluster("v100-8")
        model = get_transformer("gpt-tiny")
        recipe = TrainingRecipe(tensor_parallel=2, pipeline_parallel=2,
                                microbatch_multiplier=2, dtype="float16")
        job = TransformerTrainingJob(model, recipe, cluster,
                                     global_batch_size=16)
        session = EmulationSession(cluster)
        result = session.run(job.worker_fn, ranks=job.unique_ranks(),
                             world_size=job.world_size)
        collated = TraceCollator().collate(result.job_trace,
                                           topology=job.topology())
        for rank, trace in collated.traces.items():
            for event in trace.events:
                if event.kind is TraceEventKind.COLLECTIVE:
                    assert collated.resolution_for(rank, event) is not None
