import os
import sys
import time

import proc


def _run(code: str, limit: float) -> proc.Finished:
    return proc.run([sys.executable, "-c", code], cwd=".", env=dict(os.environ),
                    deadline=time.monotonic() + limit)


def test_process_past_its_deadline_is_killed():
    done = _run("import time; time.sleep(30)", 0.5)
    assert done.timed_out and done.returncode < 0
    assert done.seconds < 10


def test_exit_status_and_stderr_are_returned():
    done = _run("import sys; sys.exit('bad key')", 30)
    assert not done.timed_out
    assert done.returncode == 1
    assert proc.last_line(done.stderr) == "bad key"


def test_wall_time_is_not_rounded_to_a_poll():
    # subprocess.run with a timeout polls at 0.263 s and then at 0.313 s, so
    # it reports about 0.315 s for both sleeps; the exact times differ by 30 ms.
    def sleep(seconds):
        return proc.run(["sleep", str(seconds)], cwd=".", env=dict(os.environ),
                        deadline=time.monotonic() + 30).seconds

    short, long = sleep(0.27), sleep(0.30)
    assert 0.27 <= short < long
