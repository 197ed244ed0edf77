import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from skipsim.cli import main
from skipsim.fileio import read_csv_table, write_csv
from skipsim.gait import (TWO_PI, AsymmetryNoise, EncoderModel, GaitConfig,
                          GaitMode, PlanarPose, Trajectory, crawl_kinematics,
                          drift_trials, nominal_cycle_times, run_cycles)
from skipsim.stats import lateral_drift

DT = 0.01
DIGESTS = Path(__file__).parent / "golden" / "digests.json"


def ticks(cycles):
    """Each cycle time as its tick count."""
    return [round(t / DT) for t in cycles]


class TestEncoder:
    def test_detects_at_magnet(self):
        model = EncoderModel()
        assert model.detects(0.0)
        assert model.detects(math.pi)

    def test_quarter_turn_away_is_silent(self):
        model = EncoderModel()
        assert not model.detects(math.pi / 2)

    def test_two_rising_edges_per_revolution(self):
        model = EncoderModel()
        edges = 0
        prev = model.detects(0.0)
        for angle in np.linspace(0.0, TWO_PI, 5000, endpoint=False)[1:]:
            now = model.detects(angle)
            if now and not prev:
                edges += 1
            prev = now
        assert edges == 2

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError):
            EncoderModel(magnet_angles=(0.0, 0.2), detection_window=0.15)


class TestSyncGait:
    def test_symmetric_fins_cycle_once_a_second(self):
        cycles = run_cycles(GaitMode.SYNC, 10.0, DT)
        assert len(cycles) == 10
        # steady cadence of one revolution per second
        gaps = np.diff(cycles)
        assert np.allclose(gaps, 1.0, atol=2 * DT)

    @pytest.mark.parametrize("left,right", [(1.0, 0.9), (0.9, 1.0)])
    def test_slower_fin_paces_the_cycles(self, left, right):
        """The faster fin waits at every magnet, so the cycles come at
        the slower fin's own pace, whichever side it is on."""
        cycles = run_cycles(GaitMode.SYNC, 20.0, DT, left * TWO_PI,
                            right * TWO_PI)
        assert len(cycles) == 18
        assert cycles == run_cycles(GaitMode.SYNC, 20.0, DT, 0.9 * TWO_PI)

    def test_a_fin_that_does_not_turn_stalls_the_gait(self):
        assert run_cycles(GaitMode.SYNC, 10.0, DT, TWO_PI, 0.0) == []

    def test_dt_coarser_than_window_rejected(self):
        with pytest.raises(ValueError, match="^dt is too coarse for fin_speed: "):
            run_cycles(GaitMode.SYNC, 1.0, 0.05)


class TestOpenLoopGait:
    def test_cycles_count_the_left_fins_marks(self):
        """Without feedback the right fin's speed changes nothing: cycle k
        completes when the left fin has turned k revolutions."""
        cycles = run_cycles(GaitMode.OPEN_LOOP, 10.0, DT)
        assert ticks(cycles) == [100 * k for k in range(1, 11)]
        for right in (0.9 * TWO_PI, 0.0):
            assert run_cycles(GaitMode.OPEN_LOOP, 10.0, DT, TWO_PI,
                              right) == cycles
        assert len(run_cycles(GaitMode.OPEN_LOOP, 10.0, DT, 0.5 * TWO_PI,
                              TWO_PI)) == 5


@pytest.mark.parametrize("mode", list(GaitMode), ids=lambda m: m.value)
@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan])
def test_schedule_rejects_a_dt_that_is_not_positive(mode, dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        run_cycles(mode, 10.0, dt)


@pytest.mark.parametrize("speeds", [(-TWO_PI, TWO_PI), (TWO_PI, -0.1),
                                    (math.nan, TWO_PI)])
def test_schedule_rejects_a_negative_fin_speed(speeds):
    with pytest.raises(ValueError, match="fin speeds must be >= 0"):
        run_cycles(GaitMode.SYNC, 10.0, DT, *speeds)


class TestAsyncGait:
    def test_each_fin_turns_a_revolution_per_cycle(self):
        # alternating halves: each fin turns through five full revolutions,
        # validated a detection window early
        cycles = run_cycles(GaitMode.ASYNC, 10.0, DT)
        assert len(cycles) == 5
        assert ticks(cycles)[0] == 2 * ticks(run_cycles(
            GaitMode.SYNC, 1.0, DT))[0]

    def test_unequal_speeds_add_the_fins_turns(self):
        """The fins take turns, so cycle k comes after each fin has turned
        to its own k-th cycle: the sum of their symmetric sync ticks."""
        left, right = TWO_PI, 0.6 * TWO_PI
        alone = [ticks(run_cycles(GaitMode.SYNC, 30.0, DT, speed))
                 for speed in (left, right)]
        want = [a + b for a, b in zip(*alone) if a + b <= 3000]
        cycles = run_cycles(GaitMode.ASYNC, 30.0, DT, left, right)
        assert ticks(cycles) == want
        assert len(want) == 11


class TestKinematics:
    def test_zero_noise_runs_exactly_straight(self):
        events = tuple(float(k + 1) for k in range(40))
        for mode in GaitMode:
            poses, = crawl_kinematics(events, mode, AsymmetryNoise.zero(),
                                      0.033, seeds=[5])
            ys = poses[:, 1].tolist()
            assert ys == [0.0] * len(ys)
            assert (Trajectory(poses).net_displacement()
                    == pytest.approx(40 * 0.033, rel=1e-12))

    def test_encoder_feedback_is_noop_with_perfect_hardware(self):
        events = tuple(float(k + 1) for k in range(30))
        paths = [crawl_kinematics(events, mode, AsymmetryNoise.zero(), 0.033,
                                  seeds=[3])[0] for mode in GaitMode]
        for path in paths[1:]:
            assert path[:, :3].tolist() == paths[0][:, :3].tolist()

    def test_deterministic_given_seed(self):
        events = tuple(float(k + 1) for k in range(30))
        a = crawl_kinematics(events, GaitMode.OPEN_LOOP, AsymmetryNoise(),
                             0.033, seeds=[11])
        b = crawl_kinematics(events, GaitMode.OPEN_LOOP, AsymmetryNoise(),
                             0.033, seeds=[11])
        assert a.tolist() == b.tolist()

    def test_open_loop_drift_dominates_encoder_modes(self):
        wins = 0
        for ol, sync, asyn in zip(*(drift_trials(mode, seeds=range(100))
                                    for mode in (GaitMode.OPEN_LOOP,
                                                 GaitMode.SYNC,
                                                 GaitMode.ASYNC))):
            if lateral_drift(ol) >= max(map(lateral_drift, (sync, asyn))):
                wins += 1
        assert wins >= 95

    def test_stride_must_be_positive(self):
        with pytest.raises(ValueError):
            crawl_kinematics((1.0,), GaitMode.SYNC, AsymmetryNoise(), 0.0, [0])


class TestDriftTrial:
    def test_reaches_requested_distance(self):
        traj, = drift_trials(GaitMode.SYNC, seeds=[0], distance=1.0)
        assert traj.end.x - traj.start.x >= 1.0
        times = traj.poses[:, 3].tolist()
        assert times == sorted(times)

    def test_async_covers_same_cycles_more_slowly(self):
        gait = GaitConfig(noise=AsymmetryNoise.zero())
        sync, = drift_trials(GaitMode.SYNC, gait, seeds=[0])
        asyn, = drift_trials(GaitMode.ASYNC, gait, seeds=[0])
        assert len(sync.poses) == len(asyn.poses)
        assert asyn.duration() > sync.duration()


class TestTrajectory:
    def test_csv_round_trip(self, tmp_path):
        traj, = drift_trials(GaitMode.OPEN_LOOP, seeds=[1])
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        loaded = Trajectory.read_csv(path)
        assert loaded.poses.tolist() == traj.poses.tolist()
        header = path.read_text().splitlines()[0]
        assert header == "time_s,x_m,y_m,heading_rad"

    def test_rejects_time_reversal(self):
        with pytest.raises(ValueError):
            Trajectory([PlanarPose(0, 0, 0, 1.0), PlanarPose(1, 0, 0, 0.5)])

    def test_poses_are_read_only(self):
        traj, = drift_trials(GaitMode.SYNC, seeds=[0])
        with pytest.raises(ValueError, match="read-only"):
            traj.poses[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            traj.poses += 1.0

    def test_pose_list_and_rows_build_the_same_trajectory(self):
        poses = [PlanarPose(0.0, -0.0, 0.5, 0.0), PlanarPose(0.1, 0.2, 0.5, 1.0),
                 PlanarPose(0.3, 0.2, 0.6, 1.0)]
        rows = np.array([[0.0, -0.0, 0.5, 0.0], [0.1, 0.2, 0.5, 1.0],
                         [0.3, 0.2, 0.6, 1.0]])
        a, b = Trajectory(poses), Trajectory(rows)
        assert repr(a.poses.tolist()) == repr(b.poses.tolist())
        assert a.start == poses[0] and a.end == poses[-1]
        assert a.poses.shape == (3, 4)

    def test_csv_round_trip_keeps_golden_bytes(self, tmp_path):
        golden = json.loads(DIGESTS.read_text())
        assert main(["gait-drift", "--seed", "0", "--out",
                     str(tmp_path)]) == 0
        name = "trial_open_loop_1.csv"
        original = (tmp_path / name).read_bytes()
        assert (hashlib.sha256(original).hexdigest()
                == golden["gait-drift/" + name])
        Trajectory.read_csv(tmp_path / name).write_csv(tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == original

    def test_numpy_floats_write_like_python_floats(self, tmp_path):
        rows = next(drift_trials(GaitMode.SYNC, seeds=[0])).poses[:5].copy()
        rows[0] = [-0.0, 5e-324, 1e16, 1e-5]
        rows[1, 0] = np.finfo(float).max
        header = list(Trajectory.COLUMNS)
        write_csv(tmp_path / "numpy.csv", header, rows)  # np.float64 values
        write_csv(tmp_path / "python.csv", header, rows.tolist())
        text = (tmp_path / "numpy.csv").read_bytes()
        assert text == (tmp_path / "python.csv").read_bytes()
        assert b"np." not in text
        back = read_csv_table(tmp_path / "numpy.csv", header, "numpy")
        assert repr(back.tolist()) == repr(rows.tolist())


class TestCycleCache:
    def test_cached_schedule_matches_fresh_run(self):
        cached = nominal_cycle_times(GaitMode.SYNC, 10.0, TWO_PI, DT, None)
        fresh = tuple(run_cycles(GaitMode.SYNC, 10.0, DT))
        assert cached == fresh


class TestSingleMagnetEncoder:
    def test_sync_cycles_with_one_magnet(self):
        encoder = EncoderModel(magnet_angles=(0.0,), detection_window=0.15)
        cycles = run_cycles(GaitMode.SYNC, 5.0, DT, encoder=encoder)
        assert len(cycles) == 5

    def test_async_alternates_full_revolutions(self):
        encoder = EncoderModel(magnet_angles=(0.0,), detection_window=0.15)
        cycles = run_cycles(GaitMode.ASYNC, 8.0, DT, encoder=encoder)
        # one detection per revolution: a cycle is one revolution per fin
        assert len(cycles) == 4
