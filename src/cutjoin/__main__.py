import gc
import sys

from .cli import main

code = main()
# the run is over: frozen, its objects are spared the sweep of the
# interpreter's last collection at exit (an in-process `main` never freezes)
gc.freeze()
sys.exit(code)
