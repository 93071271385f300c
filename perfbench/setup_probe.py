"""Set-up probe: import contactlab from the checkout, make the warm-up calls,
then print ``ready``.  ``run.py`` times a fresh interpreter running this
file from start to ``ready``; that is the ``setup_s`` metric."""

import jobs

jobs.import_contactlab()
jobs.warm_up()
print("ready", flush=True)
