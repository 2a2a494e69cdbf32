"""shufflecodec: lossless compression of unordered objects.

Compresses sequences of graphs (or other permutable objects) at the rate of
an ordered-object model minus the log-size of each object's relabeling class,
by bits-back decoding an ordering during encoding.
"""

from .ans import (
    Codec,
    CodecError,
    ContractViolation,
    FormatError,
    Message,
    MessageUnderflow,
    ParameterError,
    message_deserialize,
    message_init,
    message_serialize,
)
from .canon import (
    Canonized,
    canonize,
    canonize_string,
)
from .compress import (
    BenchmarkReport,
    build_dataset_params,
    compress_corpus,
    decompress_corpus,
    net_rate_single,
)
from .datasets import Corpus, DatasetError, load_tu_dataset, write_tu_dataset
from .graphs import Graph, apply_perm
from .models import (
    ErParams,
    PuParams,
    erdos_renyi_codec,
    polya_urn_codec,
    string_codec,
    with_attributes,
)
from .params import (
    DatasetParams,
    decode_dataset_params,
    encode_dataset_params,
)
from .perm_codecs import uniform_l_coset_codec
from .perms import (
    PermGroup,
    StabilizerChain,
    compose,
    coset_canon,
    element_rank,
    element_unrank,
    group_order,
    inverse,
)
from .shuffle import (
    RateReport,
    ShuffleCodec,
    discount_bits,
    graph_class,
    sequence_class,
)

__version__ = "0.1.0"
