"""Prompt assembly for title/abstract generation from a selection, the
prompt x heuristic combinations and the generated row each yields.

The two system-prompt variants are pinned byte-for-byte by golden-file
tests; edit with care.
"""

from enum import IntEnum
from typing import Dict, List, NamedTuple, Optional

from .errors import EmptyContent
from .store import dumps

BASE_PROMPT = """\
You are a diligent cataloguer working to create metadata for websites. Let's think step by step to ensure accurate and comprehensive metadata creation:

1) Determine the title of the organization or company on the main web page, ensuring it reflects the primary focus or name without additional descriptors. It should match the root domain of the web page.

2) Create an abstract: Summarize the main content of the website in a brief and informative abstract.

3) Format the Result: Return the result in JSON format as {'title': [inferred_title], 'abstract': [created_abstract]}."""

RULES_ADDENDUM = """\
Summarize the content of the website following these rules:

- For company websites:
This is the website of (company’s name) which offers (services). The website contains information of (contact, operating hours, location, its services, customers’ testimonials).

- For websites selling properties:
(Name of project) is a private residential development by (name of company). The project is located at xxx. This website contains information on (the condominium, location, floor plans, developer and contact details).

- For personal websites/blogs:
This is a website of (Name of person), (role). This website contains information on (work experience, profile, education, research works, projects, publications, professional development, skills, portfolio).

- For others, create a summary."""


class HeuristicId(IntEnum):  # defined here, not in heuristics: evaluate loads no select layer
    ABOUT_PRIORITY = 1
    SHORTEST_URL = 2
    SHORTEST_URL_FILTERED = 3


class Selection(NamedTuple):  # here, not in heuristics: generate loads no select layer
    site_id: str
    heuristic: HeuristicId
    chosen_url: str
    content: str
    original_token_estimate: int
    reduced_token_estimate: int

    def to_json(self) -> str:
        return dumps(self._asdict())


class PromptVariant(NamedTuple):
    name: str  # "rules" or "norules"
    system_text: str


WITHOUT_RULES = PromptVariant("norules", BASE_PROMPT)
WITH_RULES = PromptVariant("rules", BASE_PROMPT + "\n\n" + RULES_ADDENDUM)

VARIANTS = {v.name: v for v in (WITHOUT_RULES, WITH_RULES)}
# every (prompt variant, heuristic) pair; a pair's index is its combination id
COMBINATIONS = tuple((v, h) for h in HeuristicId for v in (WITH_RULES, WITHOUT_RULES))


def combination_id(variant: PromptVariant, heuristic: HeuristicId) -> int:
    """The pair's index in COMBINATIONS, 0..5."""
    return COMBINATIONS.index((variant, heuristic))


class GeneratedMetadata(NamedTuple):  # here, not in client: evaluate loads no chat client
    title: str
    abstract: str
    source: str  # "human" or "combo<N>"
    site_id: str
    model_name: Optional[str] = None


def build_prompt(
    variant: PromptVariant, content: str, site_url: str
) -> List[Dict[str, str]]:
    """Chat messages: the variant's system text plus URL-prefixed content.

    The site URL rides along so the model can match the title to the
    root domain.
    """
    if not content.strip():
        raise EmptyContent(site_url)
    return [
        {"role": "system", "content": variant.system_text},
        {"role": "user", "content": f"{site_url}\n{content}"},
    ]
