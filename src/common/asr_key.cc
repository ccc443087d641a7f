#include "common/asr_key.h"

namespace asr {

std::string AsrKey::ToString() const {
  if (IsNull()) return "NULL";
  switch (tag()) {
    case Tag::kOid:
      return ToOid().ToString();
    // Appended, not `"literal" + std::string`: see Oid::ToString.
    case Tag::kInt:
      return std::string("#").append(std::to_string(ToInt()));
    case Tag::kString:
      return std::string("str:").append(std::to_string(ToStringCode()));
  }
  return "?";
}

}  // namespace asr
