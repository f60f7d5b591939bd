"""Dose-response of replay suppression in the scar weight w_H.

With a milder harm-attribution gain (so the scar does not saturate the
conductance floor for every weight), raising w_H monotonically deepens
replay suppression.
"""

import json
import os
import tempfile

from replaylab import desk_preset
from replaylab.cli import main as cli_main


def main():
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # work inside the temporary directory, so that the paths the sweep
        # prints are relative to it and the output is the same on every run
        os.chdir(tmp)
        try:
            with open("cfg.json", "w") as fh:
                json.dump(desk_preset(graph={"seeds": [1, 2, 3]},
                                      fields={"alpha": 0.5, "delay": 25},
                                      methods=["rapo"], episodes=5), fh)
            cli_main(["sweep", "--config", "cfg.json", "--out", "sweep.csv",
                      "--w-h", "0.5", "1.0", "2.0", "4.0", "--eta", "0.3"])
            with open("sweep.csv") as fh:
                print(fh.read())
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
