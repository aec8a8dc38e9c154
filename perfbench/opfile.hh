/**
 * @file
 * Op-stream file format shared by perf_tracegen (writer) and
 * perf_loadgen (reader).
 *
 * A file is a sequence of records, little-endian, no header:
 *
 *   GET    u8 1, key
 *   PUT    u8 2, key, value
 *   DEL    u8 3, key
 *   BATCH  u8 4, u32 count, per entry: u8 (0 put | 1 del), key
 *          [, value]
 *   SCAN   u8 5, start, end
 *
 * where key/value/start/end are u32 length + bytes. A state file
 * (the pre-capture world) is a sequence of PUT records.
 */

#ifndef ETHKV_PERFBENCH_OPFILE_HH
#define ETHKV_PERFBENCH_OPFILE_HH

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "kvstore/write_batch.hh"

namespace perfbench
{

using ethkv::Bytes;
using ethkv::BytesView;

enum class OpKind : uint8_t
{
    Get = 1,
    Put = 2,
    Del = 3,
    Batch = 4,
    Scan = 5,
};

/** One replayable request. */
struct Op
{
    OpKind kind = OpKind::Get;
    Bytes key;   //!< GET/PUT/DEL key, SCAN start.
    Bytes value; //!< PUT value, SCAN end.
    ethkv::kv::WriteBatch batch;

    /** Key + value bytes this request writes (0 for reads). */
    uint64_t
    userBytes() const
    {
        switch (kind) {
          case OpKind::Put: return key.size() + value.size();
          case OpKind::Del: return key.size();
          case OpKind::Batch: {
            uint64_t n = 0;
            for (const auto &e : batch.entries())
                n += e.key.size() + e.value.size();
            return n;
          }
          case OpKind::Get:
          case OpKind::Scan: return 0;
        }
        return 0;
    }

    bool isWrite() const
    {
        return kind == OpKind::Put || kind == OpKind::Del ||
               kind == OpKind::Batch;
    }
};

inline void
putU32(std::FILE *fp, uint32_t v)
{
    std::fwrite(&v, sizeof v, 1, fp);
}

inline void
putStr(std::FILE *fp, BytesView s)
{
    putU32(fp, static_cast<uint32_t>(s.size()));
    std::fwrite(s.data(), 1, s.size(), fp);
}

inline void
writeOp(std::FILE *fp, const Op &op)
{
    std::fputc(static_cast<int>(op.kind), fp);
    switch (op.kind) {
      case OpKind::Get:
      case OpKind::Del: putStr(fp, op.key); break;
      case OpKind::Put:
      case OpKind::Scan:
        putStr(fp, op.key);
        putStr(fp, op.value);
        break;
      case OpKind::Batch:
        putU32(fp, static_cast<uint32_t>(op.batch.size()));
        for (const auto &e : op.batch.entries()) {
            bool del = e.op == ethkv::kv::BatchOp::Delete;
            std::fputc(del ? 1 : 0, fp);
            putStr(fp, e.key);
            if (!del)
                putStr(fp, e.value);
        }
        break;
    }
}

/** Sequential reader over a whole op file held in memory. */
class OpReader
{
  public:
    /** Reads the file; false when it cannot be opened. */
    bool
    open(const std::string &path)
    {
        std::FILE *fp = std::fopen(path.c_str(), "rb");
        if (fp == nullptr)
            return false;
        char chunk[1 << 16];
        size_t n = 0;
        while ((n = std::fread(chunk, 1, sizeof chunk, fp)) > 0)
            data_.append(chunk, n);
        std::fclose(fp);
        pos_ = 0;
        return true;
    }

    /** Next op; false at end of file or on a truncated record. */
    bool
    next(Op &op)
    {
        if (pos_ >= data_.size())
            return false;
        op.kind = static_cast<OpKind>(data_[pos_++]);
        op.batch.clear();
        switch (op.kind) {
          case OpKind::Get:
          case OpKind::Del:
            return str(op.key);
          case OpKind::Put:
          case OpKind::Scan:
            return str(op.key) && str(op.value);
          case OpKind::Batch: {
            uint32_t count = 0;
            if (!u32(count))
                return false;
            Bytes k;
            Bytes v;
            for (uint32_t i = 0; i < count; ++i) {
                if (pos_ >= data_.size())
                    return false;
                bool del = data_[pos_++] != 0;
                if (!str(k))
                    return false;
                if (del) {
                    op.batch.del(k);
                } else {
                    if (!str(v))
                        return false;
                    op.batch.put(k, v);
                }
            }
            return true;
          }
        }
        return false;
    }

  private:
    bool
    u32(uint32_t &v)
    {
        if (data_.size() - pos_ < sizeof v)
            return false;
        std::memcpy(&v, data_.data() + pos_, sizeof v);
        pos_ += sizeof v;
        return true;
    }

    bool
    str(Bytes &out)
    {
        uint32_t n = 0;
        if (!u32(n) || data_.size() - pos_ < n)
            return false;
        out.assign(data_, pos_, n);
        pos_ += n;
        return true;
    }

    std::string data_;
    size_t pos_ = 0;
};

} // namespace perfbench

#endif // ETHKV_PERFBENCH_OPFILE_HH
