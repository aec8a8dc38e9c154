#include "kvstore/kvstore.hh"

namespace ethkv::kv
{

Status
KVStore::apply(const WriteBatch &batch)
{
    for (const BatchEntry &e : batch.entries()) {
        Status s = e.op == BatchOp::Put ? put(e.key, e.value)
                                        : del(e.key);
        if (!s.isOk())
            return s;
    }
    return Status::ok();
}

Status
KVStore::applyEntries(const WriteBatch &batch,
                      const std::vector<uint32_t> &positions)
{
    WriteBatch part;
    part.reserve(positions.size());
    for (uint32_t i : positions) {
        const BatchEntry &e = batch.entries()[i];
        if (e.op == BatchOp::Put)
            part.put(e.key, e.value);
        else
            part.del(e.key);
    }
    return apply(part);
}

bool
KVStore::contains(BytesView key)
{
    Bytes value;
    return get(key, value).isOk();
}

} // namespace ethkv::kv
