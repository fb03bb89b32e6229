"""Build a *custom* domain end to end and run WebIQ on it.

The five ICQ domains ship with the library, but every piece is pluggable.
This example defines a small "restaurant" domain from scratch — concepts,
label variants, value vocabulary — then generates interfaces, a synthetic
Surface Web and Deep-Web sources for it, and runs the full pipeline.

This is the template for applying the system to a new schema-matching
problem (the paper's §8 transfer direction).

Run:  python examples/custom_domain.py
"""

from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets.concepts import Concept, DomainSpec, LabelVariant
from repro.datasets.dataset import build_domain_dataset

CUISINES = (
    "Italian", "Mexican", "Chinese", "Japanese", "Thai", "Indian",
    "French", "Greek", "Korean", "Vietnamese", "Spanish", "Lebanese",
    "Turkish", "Ethiopian", "Peruvian",
)
NEIGHBORHOODS = (
    "Downtown", "Midtown", "Old Town", "Riverside", "Uptown", "Chinatown",
    "Little Italy", "Harbor District", "University District", "West End",
    "East Side", "South Bay",
)
PRICE_LEVELS = ("$", "$$", "$$$", "$$$$")

RESTAURANT = DomainSpec(
    name="restaurant",
    object_name="restaurant",
    display_name="restaurant",
    concepts=(
        Concept(
            "cuisine", CUISINES,
            (LabelVariant("Cuisine", 0.5),
             LabelVariant("Cuisine type", 0.3),
             LabelVariant("Kitchen", 0.2, 0.0)),   # always text: an island
            presence=1.0, select_prob=0.5, select_count=(5, 9),
            web_richness=8, proximity_docs=8,
        ),
        Concept(
            "neighborhood", NEIGHBORHOODS,
            (LabelVariant("Neighborhood", 0.6),
             LabelVariant("Area", 0.4)),
            presence=0.9, select_prob=0.3, select_count=(4, 8),
            web_richness=8, proximity_docs=8,
        ),
        Concept(
            "price_level", PRICE_LEVELS,
            (LabelVariant("Price level", 1.0),),
            presence=0.7, select_prob=0.9, select_count=(2, 4),
            web_richness=2, proximity_docs=3,
        ),
        Concept(
            "party_size", tuple(str(n) for n in range(1, 13)),
            (LabelVariant("Party size", 0.6),
             LabelVariant("Guests", 0.4)),
            numeric=True, presence=0.6, select_prob=0.9, select_count=(6, 10),
            web_richness=3, proximity_docs=3,
        ),
    ),
)


def build_restaurant_dataset(n_interfaces: int = 12, seed: int = 5):
    """Register the custom spec, then build its dataset the usual way.

    The generators behind ``build_domain_dataset`` look specs up by name,
    so once the spec is registered the facade builds a custom domain's
    interfaces, Surface Web and Deep-Web sources like a built-in one's.
    """
    from repro.datasets import concepts as concepts_module

    concepts_module._SPECS[RESTAURANT.name] = RESTAURANT  # register
    return build_domain_dataset("restaurant", n_interfaces, seed)


def main() -> None:
    dataset = build_restaurant_dataset()
    print(f"Custom domain 'restaurant': {len(dataset.interfaces)} interfaces, "
          f"{dataset.engine.n_documents} Surface-Web pages")

    print("\nSample interface:")
    sample = dataset.interfaces[0]
    for attr in sample.attributes:
        values = f" {list(attr.instances[:3])}" if attr.instances else ""
        print(f"  {attr.label:15} ({attr.kind.value}){values}")

    baseline = WebIQMatcher(WebIQConfig(
        enable_surface=False, enable_attr_deep=False,
        enable_attr_surface=False)).run(dataset)
    webiq = WebIQMatcher(WebIQConfig()).run(dataset)

    print(f"\nBaseline F-1: {baseline.metrics.f1:.3f}")
    print(f"WebIQ    F-1: {webiq.metrics.f1:.3f}")
    print(f"Acquisition success (no-instance attrs): "
          f"{webiq.acquisition.final_success_rate:.1f}%")

    print("\nAcquired cuisine instances for 'Kitchen' attributes:")
    for gen in dataset.generated:
        for attr in gen.interface.attributes:
            if attr.label == "Kitchen" and attr.acquired:
                print(f"  {gen.interface.interface_id}: "
                      f"{', '.join(attr.acquired[:6])}")


if __name__ == "__main__":
    main()
