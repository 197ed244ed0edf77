import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from skipsim.cli import main
from skipsim.fileio import read_csv_table, write_csv
from skipsim.gait import (TWO_PI, AsymmetryNoise, AsyncGait, EncoderModel,
                          GaitConfig, GaitMode, OpenLoopGait, PlanarPose,
                          SyncGait, Trajectory, crawl_kinematics, drift_trials,
                          nominal_cycle_times, run_cycles)
from skipsim.stats import lateral_drift

DT = 0.01
DIGESTS = Path(__file__).parent / "golden" / "digests.json"


def angle_error(gait):
    """Smallest separation of the two fins' angles (rad)."""
    d = abs(gait.left.angle - gait.right.angle) % TWO_PI
    return min(d, TWO_PI - d)


def phase_error(gait):
    """Unwrapped rotation mismatch between the fins (rad)."""
    return abs(gait.left.total_angle - gait.right.total_angle)


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
    def test_symmetric_fins_never_pause(self):
        gait = SyncGait()
        cycles = run_cycles(gait, 10.0, DT)
        assert len(cycles) == 10
        assert gait.pause_time == 0.0
        # steady cadence of one revolution per second
        gaps = np.diff(cycles)
        assert np.allclose(gaps, 1.0, atol=2 * DT)

    def test_slower_right_fin_pauses_left(self):
        gait = SyncGait(left_speed=TWO_PI, right_speed=0.9 * TWO_PI)
        errors = []
        for _ in range(2000):  # 20 s
            if gait.step():
                errors.append(angle_error(gait))
        assert gait.pause_time > 0.0
        assert len(errors) >= 15
        # steady-state phase error at cycle boundaries stays inside the window
        for err in errors[2:]:
            assert err < gait.encoder.detection_window

    def test_open_loop_phase_error_grows_linearly(self):
        gait = OpenLoopGait(left_speed=TWO_PI, right_speed=0.9 * TWO_PI)
        samples = []
        for _ in range(1000):  # 10 s
            gait.step()
            samples.append((gait.time, phase_error(gait)))
        times = np.array([s[0] for s in samples])
        errs = np.array([s[1] for s in samples])
        slope = np.polyfit(times, errs, 1)[0]
        assert slope == pytest.approx(0.1 * TWO_PI, rel=1e-2)
        assert slope > 0

    def test_dt_coarser_than_window_rejected(self):
        with pytest.raises(ValueError):
            SyncGait(left_speed=TWO_PI, dt=0.05)


@pytest.mark.parametrize("gait", [SyncGait, AsyncGait, OpenLoopGait])
@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan])
def test_constructor_rejects_a_dt_that_is_not_positive(gait, dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        gait(dt=dt)


@pytest.mark.parametrize("gait", [SyncGait, AsyncGait, OpenLoopGait])
@pytest.mark.parametrize("dt", [0.07, 0.005])
def test_schedule_refuses_a_dt_other_than_the_controllers(gait, dt):
    """A controller steps in the ticks it was built for: stepped at 0.07 s,
    a sync gait checked at 0.01 s would sweep across detection windows and
    count 7 cycles in 10 s."""
    controller = gait(dt=DT)
    with pytest.raises(ValueError, match="controller built for dt 0.01"):
        run_cycles(controller, 10.0, dt)
    assert controller.ticks == 0


class TestAsyncGait:
    def test_mover_flips_at_every_detection(self):
        gait = AsyncGait()
        movers = [gait.active]
        prev_active = gait.active
        for _ in range(600):  # 6 s
            gait.step()
            if gait.active is not prev_active:
                movers.append(gait.active)
                prev_active = gait.active
        assert len(movers) > 4
        for a, b in zip(movers, movers[1:]):
            assert a is not b

    def test_mutual_exclusion(self):
        gait = AsyncGait()
        for _ in range(500):  # 5 s
            gait.step()
            moving = [f for f in (gait.left, gait.right) if f.angular_speed > 0]
            assert len(moving) <= 1

    def test_commanding_both_fins_is_ignored(self):
        gait = AsyncGait()
        idle = gait.right if gait.active is gait.left else gait.left
        idle.angular_speed = TWO_PI  # attempt to move the unscheduled fin
        before = idle.angle
        gait.step()
        assert idle.angle == before
        assert idle.angular_speed == 0.0

    def test_cycle_count_matches_slower_fin_revolutions(self):
        gait = AsyncGait()
        cycles = run_cycles(gait, 10.0, DT)
        # alternating halves: each fin turns through five full revolutions
        # (validated a detection-window early, hence round rather than floor)
        slower_turns = min(gait.left.total_angle, gait.right.total_angle) / TWO_PI
        assert round(slower_turns) == len(cycles) == 5
        assert abs(slower_turns - len(cycles)) < 0.1


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
        fresh = tuple(run_cycles(SyncGait(), 10.0, DT))
        assert cached == fresh


class TestSingleMagnetEncoder:
    def test_sync_cycles_with_one_magnet(self):
        encoder = EncoderModel(magnet_angles=(0.0,), detection_window=0.15)
        gait = SyncGait(encoder=encoder)
        cycles = run_cycles(gait, 5.0, DT)
        assert len(cycles) == 5

    def test_async_alternates_full_revolutions(self):
        encoder = EncoderModel(magnet_angles=(0.0,), detection_window=0.15)
        gait = AsyncGait(encoder=encoder)
        cycles = run_cycles(gait, 8.0, DT)
        # one detection per revolution: a cycle is one revolution per fin
        assert len(cycles) == 4
