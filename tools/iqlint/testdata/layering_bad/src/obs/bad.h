// obs must not reach up into io: io depends on obs, not the reverse.
#include "io/block_file.h"

inline int ObsBad() { return 1; }
