"""Run the executable theory checks and show their margins.

The no-go equivalence (a reset agent cannot behave differently under a
stationary kernel) runs on the shipped Exposure -> Decay -> Replay runner,
with RAPO's scar-reading deformation as the negative control that must
break it. The odds-contraction factor, the safe-mass floor and the
multi-step compounding bound are checked on the library's own
conductance -> reweight_rows law, with their own negative controls.
"""

import json

from replaylab import run_all_checks


def main():
    print(json.dumps(run_all_checks(seed=0), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
