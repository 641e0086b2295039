"""warc2meta: WARC archives to candidate catalogue metadata, with evaluation.

Import names from the submodules, e.g. `from warc2meta.tokens import
count_tokens`. The package root loads no module, so each CLI stage
imports only the layers, and the third-party libraries, it runs.
"""

__version__ = "0.1.0"
